(** Wall-clock self-profiler for the simulation loop.

    Categories are small integers interned from strings ("client", "net",
    "lock", …). Instrumented schedulers wrap each event closure with
    {!wrap}, which charges the closure's execution time (wall-clock seconds
    via [Unix.gettimeofday]) and minor-heap allocation ([Gc.minor_words]
    delta) to its category. Events run to completion before the scheduler
    regains control, so samples never nest and the per-category sums
    partition the loop's total execution time.

    Category 0, ["other"], is the catch-all. The profiler is zero-cost
    when disabled: {!cat} returns category 0 and schedulers skip the wrap
    entirely after one {!on} check. *)

type t

(** Shared disabled profiler: {!on} is [false], {!cat} returns 0. *)
val disabled : t

val create : unit -> t
val on : t -> bool

(** [cat t name] — the category id for [name], interning it on first use.
    Returns 0 when disabled. *)
val cat : t -> string -> int

(** Category of the event currently executing (0 at top level).
    Schedulers use this to attribute work a process schedules on behalf of
    itself (delays, suspends) to the process's own category. *)
val current : t -> int

(** [wrap t ~cat fn] — a closure that runs [fn] and charges its wall time,
    count, and minor allocation to [cat]. *)
val wrap : t -> cat:int -> (unit -> unit) -> unit -> unit

(** {1 Reading} *)

val total_events : t -> int

(** [(name, events, wall_s, minor_words)] per non-empty category, heaviest
    first (ties by name). *)
val rows : t -> (string * int * float * float) list

(** Table of per-category time shares plus GC deltas since creation. *)
val pp_table : Format.formatter -> t -> unit

(** Single-line JSON object (categories, shares, GC deltas). *)
val to_json_string : t -> string
