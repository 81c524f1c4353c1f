(** Run-time metrics (Section 5.3 of the paper).

    The paper's primary metrics are {e average throughput} — the average of
    the per-site primary-subtransaction throughputs — and {e abort rate} —
    the percentage of primary subtransactions that abort. We also collect the
    two §5.3.4 metrics: average response time of committed transactions and
    the update-propagation delay to replicas, plus a per-site breakdown of
    commit/abort traffic (the aggregate curves of §5.3 are explained by
    behaviour at individual sites, so the summary exposes it). *)

(** The exact samples a fixed-bucket histogram cannot answer. Every count,
    sum and maximum lives in the cluster's {!Repdb_obs.Stats} registry;
    {!summarize} reads them from there. *)
type t

val create : unit -> t

(** {1 Recording (called by the driver's clients)} *)

(** A committed attempt finished at simulated ms [at]: keep its exact
    [response] (for {!percentile}) and land it in the availability
    timeline (100 ms buckets). *)
val commit : t -> at:float -> response:float -> unit

(** An aborted attempt finished at [at]; availability timeline only. *)
val abort : t -> at:float -> unit

(** A client thread finished all its transactions at [time]. *)
val client_done : t -> time:float -> unit

(** The registry counter charged with aborts for [reason]:
    ["abort.<reason>"], e.g. ["abort.lock-timeout"]. *)
val abort_counter_name : Repdb_txn.Txn.abort_reason -> string

(** {1 Summary} *)

type site_summary = {
  site : int;
  s_commits : int;
  s_aborts : int;
  s_avg_response : float;  (** ms, committed transactions originated here. *)
}

type summary = {
  commits : int;
  aborts : int;
  abort_rate : float;  (** Percentage of attempts that aborted. *)
  aborts_by_reason : (Repdb_txn.Txn.abort_reason * int) list;
  duration : float;  (** ms from start until the last client finished. *)
  throughput : float;  (** Committed primaries per second, whole system. *)
  throughput_per_site : float;  (** [throughput / m] — the paper's metric. *)
  avg_response : float;  (** ms, committed transactions only. *)
  p50_response : float;  (** Median response, ms. *)
  p95_response : float;  (** 95th-percentile response, ms. *)
  p99_response : float;  (** 99th-percentile response, ms. *)
  avg_propagation : float;  (** ms from primary commit to replica apply. *)
  n_propagations : int;
  messages : int;  (** Total network messages (all kinds). *)
  per_site : site_summary list;  (** One row per origin site. *)
  timeline : (float * int * int) list;
      (** Goodput / abort-rate timeline: [(bucket_start_ms, commits, aborts)]
          per 100 ms bucket. *)
  unavail_ms : float;
      (** Total ms in buckets with aborts but no commits — time the system
          was reachable-but-refusing. Idle buckets do not count. *)
  unavail_windows : int;  (** Maximal runs of unavailable buckets. *)
  stale_reads : int;
  max_staleness : float;  (** ms; 0 when no stale reads. *)
  avg_staleness : float;  (** ms; 0 when no stale reads. *)
}

(** [percentile sorted q] — nearest-rank percentile of an ascending-sorted
    sample: the element at {!Repdb_obs.Stats.rank}; 0 when empty. *)
val percentile : float array -> float -> float

(** [summarize t stats] — the summary as a view: counts, sums and maxima
    are read from [stats] ([txn.commit], [txn.abort], [abort.<reason>],
    [response], [prop.delay], [msg.sent], [read.stale]; an unregistered
    name reads as zero), percentiles from the exact response samples, and
    [duration] is the latest {!client_done} time. *)
val summarize : t -> Repdb_obs.Stats.t -> summary

val pp_summary : Format.formatter -> summary -> unit

(** The per-site breakdown as one line per site. *)
val pp_per_site : Format.formatter -> summary -> unit
