(** Shared site runtime: one simulated distributed database instance.

    A cluster bundles the substrate a protocol runs on — simulation kernel,
    per-site stores and lock managers, per-machine CPUs, the data placement,
    the access history and the {!Stats} registry where every count is
    recorded — plus the bookkeeping the driver needs to detect quiescence.

    Each optional feature keeps its state in one sub-record that is [Some]
    exactly when the feature is on; a feature that is off allocates nothing
    and registers no {!Stats} names. *)

module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Resource = Repdb_sim.Resource
module Condvar = Repdb_sim.Condvar
module Store = Repdb_store.Store
module Wal = Repdb_store.Wal
module Lock_mgr = Repdb_lock.Lock_mgr
module Fault = Repdb_fault.Fault
module History = Repdb_txn.History
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Trace = Repdb_obs.Trace
module Stats = Repdb_obs.Stats
module Span = Repdb_obs.Span
module Timeline = Repdb_obs.Timeline

(** Quiescence accounting; always present. *)
type quiescence = {
  mutable outstanding : int;  (** In-flight messages / pending remote work. *)
  mutable clients_running : int;
  mutable active_txns : int;
      (** Transaction attempts currently executing (epoch drains and the
          timeline's active column count attempts, not clients). *)
  quiesced : Condvar.t;  (** Broadcast on transitions relevant to quiescence. *)
}

(** Fault injection; present iff [params.faults] is non-empty. *)
type faults = {
  injector : Fault.injector;
      (** Drives the networks' drop/delay behaviour and {!schedule_faults}. *)
  wals : Wal.t array;
      (** Per-site redo logs, attached at creation: hooking every write has a
          cost, and fault-free runs never crash. *)
  site_up : bool array;
  up_cv : Condvar.t array;  (** Per site; broadcast when the site restarts. *)
}

(** Bounded-staleness reads; present iff [params.stale_reads > 0]. *)
type stale_reads = {
  apply_mtime : float array array;
      (** [site][item] — simulated time of the last write applied locally;
          the staleness clock for partition-time local reads. *)
  stale_hist : Stats.histogram;
      (** ["read.stale"], the staleness of each partition-time local read. *)
}

(** Epoch switches; present iff the placement can change mid-run: an
    operator plan is scheduled ([params.reconfig] non-empty) or the healer
    may fail over ([params.heal]). Protocols test its presence to provision
    appliers for sites that could acquire a tree parent at a later epoch. *)
type epochs = {
  mutable reconfiguring : bool;  (** An epoch switch is in progress. *)
  drained : Condvar.t;
      (** Broadcast (while reconfiguring) when [active_txns] and
          [outstanding] both reach 0. *)
  resume : Condvar.t;  (** Broadcast when the epoch switch completes. *)
  switch_hist : Stats.histogram;
      (** Drain + transfer + switch latency per executed operator step
          (["reconfig.switch"], charged to site 0); in the cluster's registry
          only when an operator plan exists. *)
  stall_hist : Stats.histogram;
      (** Per-site client stall at the epoch barrier (["reconfig.stall"]). *)
}

(** The sampled timeline; present iff [params.timeline_every > 0]. *)
type telemetry = {
  timeline : Timeline.t;  (** Filled by the driver's ticker via {!sample_timeline}. *)
  commits : Stats.counter;  (** ["txn.commit"], bumped by the driver's clients. *)
  aborts : Stats.counter;  (** ["txn.abort"]. *)
  commits_prev : int array;  (** Counter snapshots at the last sample. *)
  aborts_prev : int array;
  lag_pending : int array;
      (** Per site: propagated updates destined but not yet applied. *)
  lag_applied : float array;
      (** Per site: origin-commit time of the newest update applied. *)
  lag_seen : bool array;  (** Scratch for {!note_destined} deduplication. *)
  mutable inflight : (unit -> int) list;
      (** One in-flight getter per network or batcher the cluster built. *)
  mutable phi : unit -> float array;
      (** Per-site suspicion level for the φ columns; installed by the
          healer. *)
}

(** Self-healing; present iff [params.heal]. *)
type healing = {
  corrupted : (int * int, unit) Hashtbl.t;
      (** [(site, item)] replica copies scrambled by a [corrupt@] clause and
          not yet repaired; cleared by recovery and anti-entropy. *)
  stale_drop_ctr : Stats.counter;  (** ["heal.stale_drop"]. *)
  corrupt_ctr : Stats.counter;
      (** ["corrupt.items"], copies scrambled (cumulative; repairs do not
          subtract). *)
  mutable inflight_matching : ((src:int -> dst:int -> bool) -> int) list;
      (** Per network or batcher: in-flight units on the pairs a predicate
          selects; summed for the failover's weak drain. *)
}

type t = {
  sim : Sim.t;
  params : Params.t;
  mutable placement : Placement.t;
      (** Current data placement; replaced wholesale at an epoch switch
          (while the cluster is drained), never mutated in place. *)
  lat_fn : int -> int -> float;  (** One-way latency per ordered site pair. *)
  stores : Store.t array;
  locks : Lock_mgr.t array;
  cpus : Resource.t array;  (** One per machine; sites map round-robin. *)
  history : History.t;
  trace : Trace.t;  (** Structured event trace; disabled unless requested. *)
  stats : Stats.t;  (** Per-site counter/histogram registry; always on. *)
  prop_hist : Stats.histogram;  (** Propagation-delay histogram, per site. *)
  spans : Span.t;
      (** Transaction phase attribution (always on; registers the five
          [span.*] histograms in [stats]). *)
  rng : Rng.t;  (** Workload stream; derived from [params.seed]. *)
  mutable next_gid : int;
  mutable next_attempt : int;
  mutable config_epoch : int;
      (** Configuration epoch; bumped once per executed epoch switch.
          Propagation messages carry the epoch they were routed under and
          check it on arrival ({!stale_epoch}). *)
  quiesce : quiescence;
  mutable stopped : bool;  (** Set once quiescent; periodic processes exit. *)
  faults : faults option;
  stale : stale_reads option;
  epochs : epochs option;
  telemetry : telemetry option;
  healing : healing option;
}

(** [create params] — build the cluster; the placement is drawn from a
    generator derived from [params.seed]. Pass [~trace:true] to collect a
    structured event trace (ring of [trace_capacity] events, default 2^20);
    the per-site stats registry is always on. *)
val create : ?trace:bool -> ?trace_capacity:int -> Params.t -> t

(** [create_with ?latency params placement] — same but with a fixed placement
    (used by examples and tests that need a hand-built copy graph), and
    optionally a per-pair latency function (e.g. to model one slow link, the
    condition that exposes Example 1.1 under indiscriminate propagation). *)
val create_with :
  ?latency:(int -> int -> float) -> ?trace:bool -> ?trace_capacity:int -> Params.t -> Placement.t -> t

(** Fresh global transaction id. *)
val fresh_gid : t -> int

(** Fresh execution-attempt id: the only identity of a lock owner and of a
    history attempt. *)
val fresh_attempt : t -> int

(** [use_cpu t site d] — consume [d] ms of the site's machine CPU (FIFO). *)
val use_cpu : t -> int -> float -> unit

(** [make_net ~describe t] — a fresh network wired to the cluster's
    simulation, latency, trace, stats registry (whose [msg.sent] total is
    the run's message count), fault injector and in-flight accounting. Each
    protocol builds its own typed network(s); [describe] tags traced
    messages with a kind and an approximate size in bytes; [arity] counts
    the logical units one message carries (default 1). *)
val make_net : ?arity:('a -> int) -> describe:('a -> string * int) -> t -> 'a Repdb_net.Network.t

(** [make_batch_net ~describe_one t] — a network carrying per-pair coalesced
    update runs ([batch_size]/[batch_linger_ms] from the cluster's params).
    Message counters, per-site stats and the timeline's in-flight sample
    account logical updates, not envelopes, so metrics stay comparable
    across batch sizes; [describe_one] describes a single update (a
    singleton batch is described exactly like the bare message, larger
    batches as ["kind[n]"] with summed sizes). *)
val make_batch_net : describe_one:('a -> string * int) -> t -> 'a list Repdb_net.Network.t

(** [make_batcher t net] — the coalescer feeding [net], configured from the
    cluster's [batch_size]/[batch_linger_ms]; updates still parked in it are
    included in the timeline's in-flight sample. *)
val make_batcher : t -> 'a list Repdb_net.Network.t -> 'a Repdb_net.Batcher.t

(** {1 Transaction lifecycle}

    Emitted by the transaction frame ({!Exec}) once per client attempt:
    each opens or closes the attempt's phase span and, when the trace is
    on, records the matching event. Other events are recorded directly
    with the [Trace.on]/[Trace.record] idiom. *)

val trace_txn_begin : t -> gid:int -> attempt:int -> site:int -> unit
val trace_txn_commit : t -> gid:int -> attempt:int -> site:int -> unit
val trace_txn_abort : t -> gid:int -> attempt:int -> site:int -> Repdb_txn.Txn.abort_reason -> unit

(** Intern a profiler category name in the kernel's self-profiler (cheap;
    "other" when [params.profile] is off). *)
val profile_cat : t -> string -> int

(** {1 Bounded-staleness reads}

    No-ops unless {!field:stale} is present. *)

(** Stamp [item]'s local copy at [site] as written now. Called on every
    applied write (primary and replica). *)
val note_apply : t -> site:int -> item:int -> unit

(** ms since [item] was last written at [site] (time itself if never). *)
val staleness : t -> site:int -> item:int -> float

(** Account a partition-time local read: its staleness in the
    ["read.stale"] histogram and a [Stale_read] trace event. *)
val record_stale_read : t -> site:int -> item:int -> staleness:float -> unit

(** {1 Replication-lag timeline}

    Only the propagation-delay histogram and the trace are kept unless
    {!field:telemetry} is present. *)

(** Record a replica update in the per-site propagation-delay histogram
    ([prop.delay]) and (when enabled) the trace; also advances the
    replication-lag bookkeeping. *)
val record_propagation : t -> gid:int -> site:int -> delay:float -> unit

(** [note_destined t ~items] — called by the transaction frame at
    origin-commit time with the committed write set: every site holding a
    replica of a written item gains one pending update (once per
    transaction). *)
val note_destined : t -> items:int list -> unit

(** Append one sample row (gauges now, commit/abort deltas since the last
    sample). The driver's ticker calls this every [params.timeline_every]
    ms. Lag is 0 at a site with nothing pending, otherwise the age of the
    newest applied origin commit (so it grows while propagation is stalled,
    e.g. across a partition). *)
val sample_timeline : t -> unit

(** Install the per-site suspicion sampler feeding the timeline φ columns. *)
val set_phi_fn : t -> (unit -> float array) -> unit

(** {1 Quiescence accounting} *)

val inc_outstanding : t -> unit
val dec_outstanding : t -> unit
val client_started : t -> unit
val client_finished : t -> unit

(** [quiescent t] — no clients running and nothing outstanding. *)
val quiescent : t -> bool

(** Block until {!quiescent}, then set [stopped]. *)
val await_quiescence : t -> unit

(** Bracket every transaction execution attempt (including retries); the
    epoch drain counts attempts, not clients, because clients survive
    epoch switches. *)
val txn_started : t -> unit

val txn_finished : t -> unit

(** {1 Fault injection}

    Crashes are modelled at the storage and transport boundaries: while a
    site is down it is unreachable in both directions (the networks' acked
    links retry around the downtime) and its clients pause before starting
    new transactions; at restart the volatile store is discarded, rebuilt
    from the site's redo log and checked against the pre-crash contents
    (a divergence raises [Failure]). Work the site had already accepted
    completes — the paper's durability story (DataBlitz redo recovery)
    covers committed state, not scheduler state. *)

(** Is the site up? Always true without fault injection. *)
val site_up : t -> int -> bool

(** Block until the site is up; returns immediately if it already is.
    Clients call this before starting each transaction. *)
val await_site_up : t -> int -> unit

(** Schedule every crash/restart and corruption in the fault schedule as
    simulation events, plus trace marks for each partition begin and heal
    and a ["fault.partition"] count (charged to site 0) per begin; no-op
    without fault injection. The driver calls this before starting
    clients. *)
val schedule_faults : t -> unit

(** {1 Epoch switches}

    An operator plan ({!Reconfig_exec}) and the healer's failovers
    ({!Heal_exec}) switch epochs the same way: take the switch, stall
    clients at {!reconfig_barrier}, drain, swap [placement], bump
    [config_epoch] and release. The coordinator-side calls raise
    [Invalid_argument] when {!field:epochs} is absent. *)

(** Block until no attempt is executing and nothing is outstanding. Only a
    coordinator calls this, after {!acquire_switch} (the broadcasts fire
    only while reconfiguring). *)
val await_drained : t -> unit

(** Stall while an epoch switch is in progress; no-op otherwise. Records the
    stall in [stall_hist], charged to [site]. Clients call this before
    generating each transaction. *)
val reconfig_barrier : t -> site:int -> unit

(** Acquire the exclusive right to run an epoch switch: waits while another
    switch (operator reconfiguration or healer failover) is in progress, then
    sets [reconfiguring]. Release with {!release_switch}. *)
val acquire_switch : t -> unit

(** Clear [reconfiguring] and broadcast [resume], waking stalled clients and
    any coordinator queued at {!acquire_switch}. *)
val release_switch : t -> unit

(** {1 Self-healing}

    Hooks used by {!Heal_exec} (the φ-accrual detector, failover coordinator
    and anti-entropy repairer). *)

(** The healer's weak drain condition: no transaction attempt executing and
    nothing in flight except traffic parked behind the outage itself (on
    pairs with a down endpoint or an active partition between them). The
    caller must poll (with settle delays) — parked counts change without
    broadcasts. *)
val weak_drained : t -> bool

(** [stale_epoch t ~site ~epoch] — true iff [epoch] predates the current
    configuration epoch: the message was parked behind an outage when a
    weak-drain failover moved routing on, and the receiving protocol must
    drop it (anti-entropy repairs the gap). Counted per site in
    ["heal.stale_drop"].
    @raise Failure when healing is off (the strong drain makes a stale epoch
    a protocol bug there). *)
val stale_epoch : t -> site:int -> epoch:int -> bool

(** Clear a corruption mark (the healer repaired or re-verified the copy). *)
val clear_corrupt : t -> site:int -> item:int -> unit
