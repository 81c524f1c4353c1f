module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Txn = Repdb_txn.Txn

let call ?(deadline_at = infinity) (c : Cluster.t) ~site send =
  Cluster.use_cpu c site c.params.cpu_msg;
  if Sim.now c.sim >= deadline_at then `Deadline
  else
    Sim.suspend (fun resume ->
        Cluster.inc_outstanding c;
        if deadline_at < infinity then Sim.at c.sim deadline_at (fun () -> resume `Deadline);
        send (fun v ->
            Cluster.dec_outstanding c;
            resume (`Reply v)))

type msg =
  | Request of { item : int; gid : int; owner : int; reply : bool -> unit }
  | Answer of { granted : bool; deliver : bool -> unit }
  | Release of { owner : int }

let describe (mode : Lock_mgr.mode) msg =
  match (mode, msg) with
  | Shared, Request _ -> ("read-request", 24)
  | Shared, Answer _ -> ("read-reply", 16)
  | Exclusive, Request _ -> ("wlock-request", 24)
  | Exclusive, Answer _ -> ("wlock-reply", 16)
  | _, Release _ -> ("release", 16)

type t = {
  c : Cluster.t;
  mode : Lock_mgr.mode;
  on_grant : site:int -> owner:int -> int -> unit;
  send : src:int -> dst:int -> msg -> unit;
}

let locks ?(on_grant = fun ~site:_ ~owner:_ _ -> ()) c mode ~send = { c; mode; on_grant; send }

(* A request is served by its own process since the lock wait can block. *)
let serve l ~site ~src ~item ~gid ~owner ~reply =
  let c = l.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let granted =
    match Lock_mgr.acquire c.locks.(site) ~owner item l.mode with
    | Lock_mgr.Granted ->
        l.on_grant ~site ~owner item;
        History.record c.history ~site ~item ~gid ~attempt:owner
          (match l.mode with Shared -> History.R | Exclusive -> History.W);
        true
    | Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim -> false
  in
  l.send ~src:site ~dst:src (Answer { granted; deliver = reply })

let handle l ~site ~src = function
  | Request { item; gid; owner; reply } ->
      Sim.spawn l.c.sim (fun () -> serve l ~site ~src ~item ~gid ~owner ~reply)
  | Answer { granted; deliver } -> deliver granted
  | Release { owner } ->
      Sim.spawn l.c.sim (fun () ->
          Cluster.use_cpu l.c site l.c.params.cpu_msg;
          Lock_mgr.release_all l.c.locks.(site) ~owner;
          Cluster.dec_outstanding l.c)

type held = (int, unit) Hashtbl.t

let held () : held = Hashtbl.create 4

let acquire l (f : Exec.frame) held ~dst item =
  Hashtbl.replace held dst ();
  match
    call l.c ~site:f.site ~deadline_at:f.deadline_at (fun reply ->
        l.send ~src:f.site ~dst (Request { item; gid = f.gid; owner = f.attempt; reply }))
  with
  | `Reply true -> Ok ()
  | `Reply false -> Error Txn.Remote_denied
  | `Deadline -> Error Txn.Deadline_exceeded

let release l (f : Exec.frame) held =
  Hashtbl.iter
    (fun dst () ->
      Cluster.inc_outstanding l.c;
      l.send ~src:f.site ~dst (Release { owner = f.attempt }))
    held;
  Hashtbl.length held
