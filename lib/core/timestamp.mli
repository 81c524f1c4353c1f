(** DAG(T) timestamps (Definitions 3.1–3.3 of the paper, plus the epoch
    numbers of Section 3.3).

    A {e tuple} is a pair of a site and that site's local counter value. A
    timestamp is a vector of tuples in increasing site order — one tuple for
    the committing site and one for a subset of its copy-graph ancestors —
    together with an epoch number.

    Sites here are identified by their {e rank} in a fixed total order
    consistent with the (acyclic) copy graph; the DAG(T) protocol converts
    site ids to ranks before building timestamps, which keeps the
    increasing-site-order invariant true by construction.

    Comparison is total: epochs compare first; for equal epochs the vectors
    compare lexicographically with the {e prefix-is-smaller} rule and, at the
    first differing position, {e reverse} order on sites and forward order on
    counters. E.g. (Definition 3.3):
    [(s1,1) < (s1,1)(s2,1)], [(s1,1)(s3,1) < (s1,1)(s2,1)],
    [(s1,1)(s2,1) < (s1,1)(s2,2)]. *)

type tuple = { site : int; lts : int }

type t
(** Abstract: internally the vector is kept newest-tuple-first so {!concat}
    and {!bump_own} are O(1) — a transaction crossing a long propagation
    chain extends its timestamp once per hop, and the tail-append
    representation made that quadratic. Use {!tuples} for the forward
    (increasing-site-order) view. *)

(** [initial site] — the timestamp [(site, 0)] with epoch 0; the initial site
    timestamp of the protocol. *)
val initial : int -> t

(** The epoch number. *)
val epoch : t -> int

(** The vector in forward (increasing-site) order. O(n). *)
val tuples : t -> tuple list

(** [of_tuples ~epoch tuples] builds a timestamp from a forward-order vector.
    No validation — pair with {!well_formed} when the input is untrusted. *)
val of_tuples : epoch:int -> tuple list -> t

(** Total order of Definition 3.3 extended with epochs. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [bump_own t site] increments the counter in the tuple for [site] — the
    commit step of a primary subtransaction. The tuple for [site] must be the
    last of the vector (it always is for a site timestamp).
    @raise Invalid_argument otherwise. *)
val bump_own : t -> int -> t

(** [concat t ~site ~lts] — the new site timestamp after a secondary
    subtransaction with timestamp [t] commits at [site]:
    [t · (site, lts)], keeping [t]'s epoch.
    @raise Invalid_argument if appending breaks the increasing-site order. *)
val concat : t -> site:int -> lts:int -> t

(** [with_epoch t e] — [t] with epoch [e]. *)
val with_epoch : t -> int -> t

(** The vector respects strictly-increasing site order. *)
val well_formed : t -> bool
