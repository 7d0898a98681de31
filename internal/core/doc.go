// Package core implements the paper's contribution: a fully
// decentralized multi-resource allocation algorithm (Lejeune, Arantes,
// Sopena, Sens — INRIA RR-8689 / ICPP 2015) that serializes conflicting
// requests with per-resource counters instead of a global lock, and
// dynamically reschedules nearly-satisfied requests with a loan
// mechanism.
//
// # Mechanism
//
// Every resource has a unique token holding: the resource counter, the
// queue of pending requests (wQueue) sorted by the total order "/", the
// pending loan requests (wLoan), obsolescence stamps (lastReqC, lastCS)
// and, while lent, the lender's identity. Tokens move along a dynamic
// tree per resource (father pointers tokDir), a simplified Mueller
// prioritized token algorithm: requests travel toward the root (the
// token holder), and responses — counter values and tokens — return
// directly.
//
// A request for resources D first collects the current counter value of
// every resource in D (state waitS), assembling a vector v ∈ N^M. The
// pluggable function A folds v into a real number; (A(v), site id)
// totally orders requests, so no deadlock can form, with zero
// communication between non-conflicting processes. The requester then
// asks for each token (state waitCS) and enters its critical section
// when it owns all of them.
//
// Tree mutation in flight is handled exactly as §4.2.1 prescribes:
// request messages carry the set of already-visited sites (forwarding
// stops on a cycle), every forwarding site keeps the request in a local
// pendingReq history replayed when a token arrives, and the stamps in
// the token discard obsolete replays.
//
// # Message records
//
// One ownership rule governs the two batch messages (LASS.Request,
// LASS.Response): the receiver keeps the record. A record owns its
// storage; Env.Send gives it away for good, so a sender never touches,
// reuses or recycles what it sent (a reliable fabric keeps sent messages
// for retransmission and a fault injector may queue one twice — reuse on
// the sending side is unsound by construction). Deliver hands the record
// to the receiving node, which, after the activation's flush has
// returned (the forwarded batches copy its visited set until then),
// scrubs it onto a small capped free list its own next flush draws
// from. The scrub rule: nothing another site may own stays reachable
// from a waiting record — its token pointers and the missing sets of
// its loan requests are cleared; its requests, holder hints and relays
// hold no pointer (a loan's set rides in a list beside them,
// batch.Missing) and are only truncated, so a refilled record carries
// its new sender's hints and relays alone. Nodes run serialized, so none of this needs a lock, and a
// free-list miss costs what building the message from scratch costs: a
// fresh record whose lists start in its own first storage. Over a socket
// the rule holds for the outbound half: decoded records are fresh, and
// what a site decodes feeds what it sends.
//
// # Node state
//
// What a node keeps per resource is flat and, where it is large,
// pointer-free. A token is reachable from a node exactly while the node
// owns it (Node.tok); when it leaves — sent, or fenced by a
// regeneration — its two stamp vectors and counter are copied into the
// node's stale table, one []int64 chunk per tableChunk resources, made
// when the first of them leaves, and the non-owner's staleness test is
// an indexed load there. The pendingReq histories are slices of
// pointer-free 40-byte requests whose first storage is cut from per-node
// slabs the same way. No per-transfer, per-resource or per-request
// object is left: a node allocates a chunk now and then while it meets
// new resources, and then nothing.
//
// # Deviations from the paper's pseudo-code
//
// Five defensive deviations, each preserving the paper's semantics, one
// that replaces an optimization and one that extends it:
//
//  1. A site that assigns itself a counter value from a token it just
//     received also stamps lastReqC[self], and Counter replies carry the
//     request id; both kill the late duplicate Counter replies the
//     pseudo-code leaves floating (§4.2.1 clearly intends this).
//  2. A returned borrowed token clears its Lender field when it reaches
//     the lender; otherwise the lender would forever consider its own
//     token borrowed and refuse future loans.
//  3. Token receipt while Idle (a returning loan after the lender's
//     release) must not re-enter the critical section even though
//     TRequired ⊆ TOwned trivially holds for an empty TRequired.
//  4. When a loan fails (the borrower yielded other tokens in the
//     meantime and returns the borrowed ones), the borrower re-issues
//     ReqRes for the returned resources: the lender deleted the
//     borrower's queue entries when lending, and without re-issuing, a
//     borrower whose request message left no pendingReq copies behind
//     could starve.
//  5. A token arriving home strips the owner's own stale wQueue and
//     wLoan entries (re-inserted elsewhere by pendingReq replay);
//     without it a node can head its own queue, or — after a failed
//     loan reset loanAsked — pass canLend against its own replayed
//     loan request and try to lend the token to itself.
//  6. Versioned holder hints replace §4.6.2's counter-reply shortcut.
//     Every token carries a transfer version, bumped by sendToken (the
//     one place a token leaves a node: loans, returns, yields, Drain and
//     lease handoff all go through it); a regenerated token starts a new
//     epoch at version 0, so versions compare as (Epoch, Ver). A node
//     keeps, per resource, the version of the holding its father
//     pointer names, and a LASS record carries the tokens its sender
//     holds with their versions, in the first record to each site since
//     that list last changed: on a FIFO link the site has acted on every
//     hint of the list before it reads the next record, so a repeat
//     could move no pointer. A receiver that does not own r repoints
//     tokDir[r] at the sender when the hint is a later holding than the
//     one it knows, before it routes the record's requests; a counter
//     replier owns r when it replies, so the old shortcut is the hint
//     for r in the reply's record. Why no pointer cycle forms: a node's
//     known version only grows, and a node named at version v held the
//     token at v, so it either still holds it or, having sent it on,
//     knows a version above v — versions strictly increase along every
//     chain of father pointers, which therefore ends at the holder or at
//     the site the token is on its way to. A hint from an ex-holder that
//     arrives late names an older holding and is ignored; taken, it
//     could point a later holder back along the chain and close a
//     cycle. The §4.2.1 visited-stop keeps its meaning: a site that
//     points at a visited site v names a holding of v later than the
//     request's pass through v, so the token reached v after the
//     request did and v replays it from pendingReq.
//     Options.DisableShortcut switches all repointing from received
//     hints off. On the paper's high-load point (N = 32, M = 80, φ = 16,
//     loan) messages per critical section fall from 62.6 to 42.8.
//  7. Gossiped holder hints. A hint reaches only the sites its holder
//     sends a record to; every other site learns where a token went when
//     its request has chased it. So each node keeps a ring of the
//     freshest holdings it made or learned, one entry per resource:
//     (r, H, V) for a token it sent to H at version V, and for every hint
//     or relay that moved its pointer at H. A replaced resource keeps
//     its slot; a new one takes the oldest slot once the ring is full.
//     Every LASS record, request or response, carries in Relay the
//     entries written since the last record of either kind to its
//     destination, less those that name the destination. A receiver
//     applies them after the hints and before the requests, counters
//     and tokens, by deviation 6's rule: it repoints tokDir[r] at H when
//     it does not own r, H is not itself and V is a later holding than
//     the one it knows. Why this is safe: an entry names a real holding
//     — H held r at V, or r is on its way to H at V — which is all
//     deviation 6's argument asks of a hint, so versions still strictly
//     increase along every chain of father pointers, which ends at the
//     holder or at the site the token is on its way to. A relay that
//     names its receiver says the token is on its way there; taken
//     before it lands, it would point the receiver at itself. A relay
//     about a token riding in the same response is older than the
//     token, which then lands over the pointer. Why a site gets an entry
//     once: a per-site sequence number, one for both record kinds, marks
//     what went out to it. On a FIFO link the site has acted on an entry
//     before it reads the next record, and its known version only
//     grows, so sending the entry again could move no pointer — a resend
//     differs from none only in the bytes of the record, and the
//     explorer's fingerprint leaves the sequence numbers out
//     (explore:"-") while it keeps the entries, the fill and the cursor,
//     which decide what the ring says. The ring lives on the node, not
//     in the outbox, whose state the fingerprint skips.
//     The ring holds min(16, N/2) entries from 16 sites on, eight from
//     128 on, and none below 16. Below 16 sites a ring of N/4 saved
//     under 3 % of the messages at the paper's load (M = 80, φ = 16,
//     loan: 0.8 % at N = 3, 2.3 % at 8, 2.8 % at 12), and at N = 8 the
//     in-process benchmark gave them back as 7–11 % fewer operations per
//     second. Against the ring of min(8, N/4) that only requests
//     carried, messages per critical section fall 7 % at N = 16, 11 % at
//     32 (sim_paper: 33.98 → 30.32) and 16 % at 64. relayCap's comment
//     prices the size against a ring of 8, and at 128 and 512 sites, the
//     live largeN cells. The searches' shapes have under 16 sites, so
//     core's search gives every site a ring of one entry; the seeded
//     walks (TestExploreWalks) run the shipped ring at N = 16 and 32. A
//     ring of no entries, and Options.DisableShortcut, keep and send
//     nothing.
package core
