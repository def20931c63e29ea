// Package client is the one streaming client feed loop. It stands where a
// real pair of voice devices stands: it takes an open piano.AuthSession
// and feeds both roles' recordings on a seeded internal/arrival schedule
// until the session decides, fails with a typed error, or the client
// vanishes.
//
// Drive feeds one chunk (or frame) per role per round and calls
// TryResult after every round. A Schedule without a wire feeds ordered
// chunks with Feed, paced by the arrival model's gaps; a Schedule with a
// wire sends CRC frames with FeedFrame over that lossy wire model,
// finishes each role's feed (FinishFeed) as soon as the role's wire
// schedule runs out, and accepts ErrFrameCorrupt only for a frame it sent
// damaged. Drive never closes the session: a vanished client, like an
// error, goes back to the caller, who may leave it to the service's
// lifecycle watchdog or close it.
//
// Role ri's schedule is seeded seed*2+ri, so a run replays exactly, and a
// loss-free schedule decides bit-identically to batch Authenticate.
//
// Category and Categories are the one shed taxonomy the commands report
// in, and Workload is the shared session request set.
package client
