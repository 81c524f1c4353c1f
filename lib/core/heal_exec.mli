(** Self-healing executor: heartbeat-driven φ-accrual failure detection,
    automatic primary failover through the epoch machinery, and Merkle-style
    anti-entropy repair.

    Scheduled by the driver when [--heal] is on. All activity rides a
    dedicated control-plane network (same latency model and fault injector as
    the data nets, but outside the data-plane message/outstanding accounting)
    and is driven entirely by simulated time, so healing runs stay
    deterministic and byte-identical across repeats and [-j].

    Protocol requirements: failover reuses the online-reconfiguration hook,
    so the protocol must provide {!Protocol.S.reconfigure}; healing a
    blocking protocol (PSL's synchronous remote reads) additionally needs
    [--txn-deadline] so the weak drain is bounded. *)

type t

(** End-of-run healing totals, embedded in {!Driver.report}. Every field
    but [incidents_open] is read from the cluster's stats registry under
    the name given. *)
type summary = {
  suspicions : int;  (** ["detector.suspect"]. *)
  false_suspicions : int;
      (** ["detector.false"]: suspected while actually up — partitions or
          scheduling jitter; a false failover costs availability (one epoch
          switch), never consistency. *)
  failovers : int;
      (** ["heal.failover"] count: epoch switches executed by the healer.
          An attempt that promoted nothing is not one. *)
  promoted_items : int;  (** ["heal.promoted"], charged to the dead site. *)
  rejoins : int;  (** ["heal.mttr"] count. *)
  repair_sessions : int;  (** ["repair.sessions"]. *)
  repaired_items : int;  (** ["repair.items"]: values installed by [Repair]. *)
  incidents_open : int;  (** Sites still suspected when the run ended. *)
  mttr_mean : float;  (** ["heal.mttr"]: ms from suspicion until rejoin. *)
  mttr_max : float;
  failover_mean : float;  (** ["heal.failover"]: ms of weak drain + switch. *)
  stale_drops : int;  (** ["heal.stale_drop"]: old-epoch messages dropped. *)
  corruption_events : int;  (** ["corrupt.events"]. *)
  corrupt_items : int;  (** ["corrupt.items"]. *)
}

(** [schedule c ~reconfigure ~gen] — create the control-plane net, the
    per-pair detector matrix and the [detector.*]/[repair.*]/[heal.*]
    registry entries, install the timeline φ probe, and spawn the heartbeat,
    suspicion-poll and anti-entropy fibers. [reconfigure] is the protocol's
    epoch hook; [gen] is refreshed with the promoted placement on
    failover. *)
val schedule : Cluster.t -> reconfigure:(unit -> unit) -> gen:Repdb_workload.Generator.t -> t

(** Spawn a full repair sweep over every (primary, holder) pair — the
    post-quiescence convergence backstop. The caller must run the simulator
    afterwards to drain it. *)
val final_sweep : t -> unit

val summary : t -> summary
val pp_summary : Format.formatter -> summary -> unit
