(** Counted FIFO resources.

    A resource with capacity [c] admits at most [c] concurrent holders;
    further acquirers queue in FIFO order. A capacity-1 resource models a
    site's CPU: {!use} serialises service bursts, which is how the simulator
    reproduces the per-machine saturation of the paper's testbed. *)

type t

(** [create ~capacity ()] — [capacity >= 1]. *)
val create : capacity:int -> unit -> t

(** Release one unit, waking the next waiter. *)
val release : t -> unit

(** [use t d] = acquire, hold for [d] simulated ms, release. *)
val use : t -> float -> unit
