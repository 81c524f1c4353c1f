(** Deterministic pseudo-random number generator (splitmix64).

    Every experiment in this repository is driven by an explicit [Rng.t] so
    that runs are reproducible from a single integer seed, independent of the
    global [Random] state. *)

type t

(** [create seed] returns a fresh generator. Generators created from the same
    seed produce identical streams. *)
val create : int -> t

(** [split t] derives an independent generator from [t], advancing [t]. *)
val split : t -> t

(** Next raw 64-bit value. *)
val next_int64 : t -> int64

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [float_range t lo hi] is uniform in [lo, hi). *)
val float_range : t -> float -> float -> float

(** [bool t p] is [true] with probability [p]. *)
val bool : t -> float -> bool

(** [exponential t mean] samples an exponential distribution. *)
val exponential : t -> float -> float

(** [pick t arr] is a uniformly chosen element of [arr].
    Requires [arr] non-empty. *)
val pick : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
