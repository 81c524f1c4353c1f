(** The clause grammar shared by fault schedules ({!Fault.of_string}) and
    reconfiguration plans ([Repdb_reconfig.Reconfig.of_string]).

    A spec is a [;]-separated list of clauses; blank clauses are skipped. A
    clause is a head, optionally followed by [:k=v,...] options (a repeated
    key takes its last value). A head [kind@arg] splits at its first [@];
    any other head is bare. Every error message carries the caller's
    [what:] prefix. *)

type head = At of string * string  (** [kind@arg] *) | Bare of string

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

(** [parse_float name v] — [v] as a number; [name] labels the error. *)
val parse_float : string -> string -> (float, string) result

(** [parse_int name v] — [v] as an integer. *)
val parse_int : string -> string -> (int, string) result

(** [req_field opts key parse] — [parse key v] for the option [key=v]; an
    error when the option is missing. *)
val req_field :
  (string * string) list -> string -> (string -> string -> ('a, string) result) ->
  ('a, string) result

(** [opt_field opts key ~default parse] — as {!req_field}, [default] when
    missing. *)
val opt_field :
  (string * string) list -> string -> default:'a -> (string -> string -> ('a, string) result) ->
  ('a, string) result

(** [parse ~what spec ~init clause] — fold [clause acc ~text head opts]
    over [spec]'s clauses in order, from [init]; [text] is the trimmed
    clause. Stops at the first error, prefixed ["what: "]. *)
val parse :
  what:string ->
  string ->
  init:'a ->
  ('a -> text:string -> head -> (string * string) list -> ('a, string) result) ->
  ('a, string) result
