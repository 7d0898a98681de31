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
// recycles it into the codec's pool (recycle); every record a node
// sends and every record a decoder fills comes from there
// (pooledBatch). One process-wide pool, so what one site is sent feeds
// what another sends, across shards and sockets alike, and the nodes of
// one factory call share nothing. The scrub rule, applied as a record
// goes in: nothing another site may own stays reachable from a pooled
// record — its token pointers and the missing sets of its loan requests
// are cleared; its requests and holdings hold no pointer (a loan's set
// rides in a list beside them, batch.Missing) and are only truncated,
// so a refilled record carries its new sender's holdings alone. A pool
// miss costs what building the message from scratch costs: a fresh
// record whose lists start in its own first storage. Over a socket the
// record's last reader is the sender's TCP transport: it releases each
// record it has encoded (wire.Release), and the record's tokens with
// it, since the sender gave both away (releaseBatch); the decoders fill
// tokens from their pool (tokenPool), reusing their storage where it
// has room and overwriting every field.
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
// Five defensive deviations, each preserving the paper's semantics, and
// one that replaces an optimization:
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
//  6. Versioned, gossiped holdings replace §4.6.2's counter-reply
//     shortcut. Every token carries a transfer version, bumped by
//     sendToken (the one place a token leaves a node: loans, returns,
//     yields, Drain and lease handoff all go through it); a regenerated
//     token starts a new epoch at version 0, so versions compare as
//     (Epoch, Ver). A holding (r, H, V) says H held r's token at V, or
//     that it is on its way to H at V; a hint is a holding that names
//     its sender. A node keeps, per resource, the version of the holding
//     its father pointer names, and a log of holdings (holdings): the
//     tokens it holds, genesis holdings left out, and a ring of the
//     freshest holdings it made (a token it sent) or learned (an entry
//     that moved its pointer), one per resource — a replaced resource
//     keeps its slot, a new one takes the oldest once the ring is full.
//     Every LASS record, request or response, carries the entries
//     written since the last record of either kind to its destination,
//     its own tokens first, less those that name the destination. The
//     receiver applies them before it routes the record's requests or
//     takes its counters and tokens: it repoints tokDir[r] at H when it
//     does not own r, H is not itself and V is a later holding than the
//     one it knows, and puts the entry in its ring. A counter replier
//     owns r when it replies, so the old shortcut is the hint for r in
//     the reply's record.
//     Why no pointer cycle forms: a node's known version only grows, and
//     a node named at version v held the token at v, so it either still
//     holds it or, having sent it on, knows a version above v — versions
//     strictly increase along every chain of father pointers, which
//     therefore ends at the holder or at the site the token is on its
//     way to. A holding that arrives late names an older holding and is
//     ignored; taken, it could point a later holder back along the chain
//     and close a cycle. One that names its receiver says the token is
//     on its way there; taken before it lands, it would point the
//     receiver at itself. One about a token riding in the same response
//     is older than the token, which then lands over the pointer. The
//     §4.2.1 visited-stop keeps its meaning: a site that points at a
//     visited site v names a holding of v later than the request's pass
//     through v, so the token reached v after the request did and v
//     replays it from pendingReq.
//     Why a record carries only news: each entry is stamped with the
//     node's next sequence number when written, and one number per site
//     marks what went out to it. On a FIFO link the site has acted on an
//     entry before it reads the next record, and its known version only
//     grows, so sending the entry again could move no pointer; a token
//     leaving sends nothing, the holdings left being no news. A resend
//     differs from none only in the bytes of the record, and the
//     explorer's fingerprint leaves the sequence numbers out
//     (explore:"-") while it keeps the entries, the fill and the cursor.
//     Options.DisableShortcut switches all repointing and the log off:
//     records then carry no holdings.
//     On the paper's high-load point (N = 32, M = 80, φ = 16, loan)
//     hints cut messages per critical section from 62.6 to 42.8, and
//     the ring to 30.32 (sim_paper). The ring holds min(16, N/2)
//     entries from 16 sites on, eight from 128 on, and none below 16,
//     where a ring costs more CPU than the messages it saves. At
//     N = 8 (M = 32, φ = 8, loan, seeds 1–3) a ring saves 2.5–4.6 % of
//     the messages with 2 entries, 5.6–8.4 % with 4 and 8.7–9.4 % with
//     16; at N = 4 (M = 32, φ = 2) a ring of 16 saves 3.0–3.4 %. On the
//     in-process benchmark at N = 8 (mem_closed) a ring of 16 cut
//     messages per critical section from 13.44 to 12.57 and operations
//     per second by 9–28 % over four pairs of runs; an earlier ring of
//     N/4 there lost 7–11 %. Against the ring of min(8, N/4) that only
//     requests carried, messages per critical section fall 7 % at
//     N = 16, 11 % at 32 (sim_paper: 33.98 → 30.32) and 16 % at 64.
//     relayCap's comment prices the size against a ring of 8, and at
//     128 and 512 sites, the live largeN cells. The searches' shapes
//     have under 16 sites, so core's search gives every site a ring of
//     one entry; the seeded walks (TestExploreWalks) run the shipped
//     ring in each regime, at N = 16, 32, 64 and 128.
package core
