(** The transaction frame: what every protocol does around its ordering rule.

    Writes are deferred: during execution a transaction only acquires locks
    (exclusive for writes, shared for reads), charges CPU and records the
    access in the history; the store is modified at commit time, so aborts
    need no undo. Strict 2PL holds because locks are only released by
    {!release} and {!abort_local}.

    A primary transaction runs through {!primary} (the optimistic protocols
    use its parts: {!begin_}, {!abort}, {!commit_certified}). The frame owns
    the gid and attempt ids, the span and trace lifecycle, the abort path
    and the commit section; the protocol supplies its execution body, an
    optional blocking step before commit, and its publish step. *)

module Txn = Repdb_txn.Txn

(** [run_ops c ~gid ~attempt ~site ops] executes [ops] locally: for each
    operation, acquire the lock, charge [cpu_op], record the access, and
    pass each value read to [on_read]. On lock failure returns
    [Error reason] with all locks still held — the caller must
    {!abort_local}. *)
val run_ops :
  ?on_read:(int -> Repdb_store.Value.t -> unit) ->
  Cluster.t ->
  gid:int ->
  attempt:int ->
  site:int ->
  Txn.op list ->
  (unit, Txn.abort_reason) result

(** [acquire_writes c ~gid ~attempt ~site items] — {!run_ops} with a write
    of each item, which must all be placed at [site]. *)
val acquire_writes :
  Cluster.t -> gid:int -> attempt:int -> site:int -> int list -> (unit, Txn.abort_reason) result

(** [apply_writes c ~gid ~site items] — install the deferred writes into the
    site store (no locking; caller holds the exclusive locks). *)
val apply_writes : Cluster.t -> gid:int -> site:int -> int list -> unit

(** [apply_versioned c ~gid ~site vwrites] — install certified
    [(item, version)] writes without locks, under a fresh attempt id: store
    write, version check, [on_apply item version] (the multi-version
    chains), staleness stamp and a versioned W record. *)
val apply_versioned :
  ?on_apply:(int -> int -> unit) -> Cluster.t -> gid:int -> site:int -> (int * int) list -> unit

(** [commit_cost ?owner c ~site] — charge [cpu_commit] (blocking), before
    the atomic commit section; to [owner]'s commit span when given. *)
val commit_cost : ?owner:int -> Cluster.t -> site:int -> unit

(** [release c ~attempt ~site] — release every lock of [attempt]. *)
val release : Cluster.t -> attempt:int -> site:int -> unit

(** [abort_local c ~attempt ~site] — discard the attempt's recorded accesses
    and release its locks. *)
val abort_local : Cluster.t -> attempt:int -> site:int -> unit

(** {1 Secondary subtransactions} *)

(** [acquire_secondary c ~gid ~site items] — exclusive locks on [items]
    under a fresh attempt id, resubmitted with another fresh attempt after
    every failed wait; [on_retry items] runs once a failed round's locks are
    gone (BackEdge victimises blockers there). Returns the lock owner. *)
val acquire_secondary :
  ?on_retry:(int list -> unit) -> Cluster.t -> gid:int -> site:int -> int list -> int

(** [commit_secondary c ~gid ~site ~attempt items] — apply, trace
    [Secondary_commit], release; does not block. *)
val commit_secondary : Cluster.t -> gid:int -> site:int -> attempt:int -> int list -> unit

(** [apply_secondary c ~gid ~site items] — {!acquire_secondary}, commit
    cost, {!commit_secondary}; nothing when [items = []]. It does not block
    after the commit, so the caller's next steps (timestamps, forwarding)
    are atomic with it: commit order equals forward order. *)
val apply_secondary :
  ?on_retry:(int list -> unit) -> Cluster.t -> gid:int -> site:int -> int list -> unit

(** {1 The primary frame} *)

type frame = {
  c : Cluster.t;
  site : int;  (** Origin site. *)
  gid : int;
  attempt : int;
      (** From {!Cluster.fresh_attempt}: the lock owner at every site, the
          history attempt and the span key. *)
  writes : int list;  (** The write set, sorted and deduplicated. *)
  deadline_at : float;
      (** Now + [params.txn_deadline] at {!begin_}, or [infinity] when
          deadlines are off. *)
}

(** [begin_ c spec] — set the attempt's deadline, allocate the gid and the
    attempt id, trace [Txn_begin] and open the attempt's span. Every
    protocol's [submit] calls it before its first blocking point, so the
    deadline counts from the submit. *)
val begin_ : Cluster.t -> Txn.spec -> frame

(** [prop_wait f wait] — run the blocking [wait], charging its duration to
    the propagation-wait span. *)
val prop_wait : frame -> (unit -> 'a) -> 'a

(** [abort f reason] — trace [Txn_deadline] for a deadline abort, release
    the attempt's locks and accesses, run [cleanup], trace [Txn_abort]. *)
val abort : ?cleanup:(unit -> unit) -> frame -> Txn.abort_reason -> Txn.outcome

(** [commit_certified c ~gid ~attempt ~site vwrites] — an optimistic
    commit section, run where the verdict lands: commit cost,
    {!apply_versioned}, note the writes destined for their replicas, trace
    [Txn_commit] and close [attempt]'s span. *)
val commit_certified :
  ?on_apply:(int -> int -> unit) ->
  Cluster.t -> gid:int -> attempt:int -> site:int -> (int * int) list -> unit

(** [primary c spec ~run ~publish] — one strict-2PL primary transaction.
    {!begin_}; [run] executes it and returns what later steps need; on
    failure {!abort} with [cleanup]. [prepare], the blocking step before
    commit (prepare round, certification, backedge wait), may still abort,
    traced first. Then the commit cost and the commit section: apply, note
    the writes destined for their replicas (unless [replicated] is false),
    [hold] (a blocking step under the locks), trace [Txn_commit], release,
    [publish]. Without [hold] the section does not block, so commit order
    equals publish order. *)
val primary :
  ?replicated:bool ->
  ?cleanup:(frame -> unit) ->
  ?prepare:(frame -> 'a -> (unit, Txn.abort_reason) result) ->
  ?hold:(frame -> unit) ->
  Cluster.t ->
  Txn.spec ->
  run:(frame -> ('a, Txn.abort_reason) result) ->
  publish:(frame -> 'a -> unit) ->
  Txn.outcome

(** [serve net site handle] — a site's server loop: forever, take the next
    message from [site]'s inbox in arrival order and [handle ~src msg]. *)
val serve : 'a Repdb_net.Network.t -> int -> (src:int -> 'a -> unit) -> unit

(** [spawn_servers c procs] — spawn [procs site] for every site, in site
    then list order, under the ["server"] profiler category. *)
val spawn_servers : Cluster.t -> (int -> (unit -> unit) list) -> unit
