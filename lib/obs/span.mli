(** Per-transaction lifecycle phase attribution.

    Each client transaction attempt is decomposed into lock wait,
    execution, propagation/backedge wait, and commit phases; client think
    time (retry backoff) is tracked separately. Phases are accumulated on
    an open record keyed by the attempt id (the attempt's lock owner),
    opened at [trace_txn_begin] time and closed at commit/abort, where the
    phase durations are fed into per-site [Stats] histograms ([span.lock],
    [span.exec], [span.prop], [span.commit], [span.think]) and — when
    tracing — emitted as {!Event.Span_phase} duration events under the
    attempt's gid.

    Execution time is derived: [exec = total − lock − prop − commit],
    clamped at 0, so the four phases always sum to the attempt's response
    time.

    Lock managers report waits by lock owner, which is the attempt id, so
    waits land on the right record directly. Owners without an open record
    (secondary appliers, backedge participants) are ignored. *)

type phase = Lock_wait | Prop_wait | Commit

type t

(** Registers the five [span.*] histograms in [stats]. *)
val create : stats:Stats.t -> trace:Trace.t -> unit -> t

(** Open attempt [owner]'s record for transaction [gid]. [now] is the
    simulated start time. *)
val begin_ : t -> owner:int -> gid:int -> site:int -> now:float -> unit

(** Charge [dur] ms of [phase] to attempt [owner]; silently ignored when
    [owner] has no open record. *)
val add : t -> owner:int -> phase -> float -> unit

(** Observe client think (backoff) time directly at [site]. *)
val think : t -> site:int -> float -> unit

(** Close attempt [owner]: observe all phase histograms and emit trace span
    events. No-op if [owner] has no open record. *)
val finish : t -> owner:int -> now:float -> unit
