(** Per-destination update coalescer for the lazy propagation paths.

    Parks updates in a per-(src, dst) FIFO queue and ships them as one
    network message carrying the whole run. A pair's queue flushes when it
    reaches [size] updates, or when its linger timer expires — armed by the
    first update parked in an empty, un-armed pair, [linger_ms] of simulated
    time later. With [linger_ms = 0] the timer fires within the same
    simulation instant, so only same-instant updates coalesce and delivery
    times are unchanged; larger lingers trade bounded extra propagation
    latency for fuller batches.

    Ordering guarantees relied on by the protocols:
    - per-pair FIFO: updates ship in push order, batches never reorder;
    - [push_now] flushes the pair before shipping its message, so control
      messages (DAG(T) dummies, BackEdge specials) never overtake parked
      updates on the same channel;
    - epoch fencing needs no batcher hook: protocols hold an outstanding
      token per parked update, the reconfiguration coordinator drains
      outstanding work to zero before an epoch switch, and every parked
      update has a flush scheduled — so queues are provably empty at every
      switch and a batch can never mix epochs.

    [size = 1] ships every push immediately as a singleton — exactly the
    pre-batching behavior with no queueing and no timer events. *)

type 'a t

(** [create ~sim ~n_sites ~size ~linger_ms ~ship ()] — [ship] performs the
    actual network send of one coalesced run (called with batches in push
    order, never empty).
    @raise Invalid_argument when [size < 1], [linger_ms] is negative or not
    finite, or [n_sites < 1]. *)
val create :
  sim:Repdb_sim.Sim.t ->
  n_sites:int ->
  size:int ->
  linger_ms:float ->
  ship:(src:int -> dst:int -> 'a list -> unit) ->
  unit ->
  'a t

(** Park an update for the pair (shipping immediately when [size = 1], when
    the queue fills, or — via the armed timer — after the linger).
    @raise Invalid_argument on out-of-range sites. *)
val push : 'a t -> src:int -> dst:int -> 'a -> unit

(** Flush the pair's parked updates, then ship [x] as its own singleton
    message: channel order is preserved around barrier-like messages. *)
val push_now : 'a t -> src:int -> dst:int -> 'a -> unit

(** Ship the pair's parked updates now (no-op on an empty queue). *)
val flush : 'a t -> src:int -> dst:int -> unit

(** Flush every pair. *)
val flush_all : 'a t -> unit

(** Updates currently parked for the pair. *)
val pending : 'a t -> src:int -> dst:int -> int
