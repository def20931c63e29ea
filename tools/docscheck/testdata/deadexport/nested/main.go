// Command nested is a separate module that imports an internal package of
// its parent module, as perfbench does.
package main

import "example.com/fix/internal/lib"

func main() { lib.NestedUse() }
