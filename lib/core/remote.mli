(** The remote path: a blocking request/reply between sites, and the
    primary-site lock service built on it (PSL's replica reads, lazy-master's
    read locks, eager's write-all locks). *)

(** [call ?deadline_at c ~site send] — one request/reply from [site]: charge
    [cpu_msg]; if the clock has reached [deadline_at], return [`Deadline]
    without sending; otherwise take an outstanding token, arm a timer at a
    finite [deadline_at] and [send reply]. The answering side calls
    [reply v], which releases the token and resumes the caller with
    [`Reply v]. Resumption is one-shot, so a reply after the deadline only
    releases its token. *)
val call :
  ?deadline_at:float -> Cluster.t -> site:int -> (('a -> unit) -> unit) ->
  [ `Reply of 'a | `Deadline ]

(** {1 Primary-site locks} *)

type msg =
  | Request of { item : int; gid : int; owner : int; reply : bool -> unit }
      (** [owner] is the requester's attempt id: the lock owner and the
          history attempt at the granting site. *)
  | Answer of { granted : bool; deliver : bool -> unit }  (** Grant or denial. *)
  | Release of { owner : int }

(** Trace kind and size: [read-*] in shared mode, [wlock-*] in exclusive. *)
val describe : Repdb_lock.Lock_mgr.mode -> msg -> string * int

type t

(** [locks ?on_grant c mode ~send] — a service taking [mode] locks, shipping
    its messages with [send]. [on_grant ~site ~owner item] runs at the
    granting site before the access is recorded in the history. *)
val locks :
  ?on_grant:(site:int -> owner:int -> int -> unit) ->
  Cluster.t -> Repdb_lock.Lock_mgr.mode -> send:(src:int -> dst:int -> msg -> unit) -> t

(** [handle t ~site ~src msg] — the server side at [site]: a request or a
    release runs as its own process charged [cpu_msg]; an answer resumes its
    requester. *)
val handle : t -> site:int -> src:int -> msg -> unit

(** The sites a transaction holds remote locks at. Created with 4 buckets:
    its iteration order is the release, prepare and decide order. *)
type held = (int, unit) Hashtbl.t

val held : unit -> held

(** [acquire t f held ~dst item] — lock [item] at [dst] for [f]'s attempt,
    bounded by [f]'s deadline; [dst] joins [held] first. *)
val acquire :
  t -> Exec.frame -> held -> dst:int -> int -> (unit, Repdb_txn.Txn.abort_reason) result

(** [release t f held] — one release, with its token, to each held site;
    returns how many were sent. *)
val release : t -> Exec.frame -> held -> int
