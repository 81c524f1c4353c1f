module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Batcher = Repdb_net.Batcher
module Txn = Repdb_txn.Txn

let name = "lazy-master"
let updates_replicas = true

type msg =
  | Read_request of { item : int; owner : int; reply : bool -> unit }
  | Read_reply of { granted : bool; deliver : bool -> unit }
  | Push of { gid : int; writes : int list; origin_commit : float; reply : unit -> unit }
      (** Updates shipped to a replica site; acknowledged once applied. *)
  | Push_ack of { deliver : unit -> unit }
  | Release of { owner : int }

(* Only [Push] messages coalesce (they are the lazy propagation stream); the
   lock-protocol traffic — read requests, replies, acks, releases — ships via
   [push_now], which flushes any parked pushes on the pair first so the
   channel order the lock protocol relies on is preserved. *)
type t = { c : Cluster.t; net : msg list Network.t; bat : msg Batcher.t; mutable remote : int }

let remote_reads t = t.remote

(* Serve a shared-lock request at the primary (the value is then read from
   the local replica at the requester — fresh, because writers hold their
   locks until every replica acknowledged). *)
let serve_read t site ~src ~item ~owner ~reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  let respond granted =
    Batcher.push_now t.bat ~src:site ~dst:src (Read_reply { granted; deliver = reply })
  in
  match Lock_mgr.acquire c.locks.(site) ~owner item Lock_mgr.Shared with
  | Lock_mgr.Granted ->
      History.record c.history ~site ~item ~gid:owner ~attempt:owner History.R;
      respond true
  | Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim -> respond false

(* Apply a pushed update set at a replica site (short local X locks, retried
   against concurrent pushes), then acknowledge; the ack takes a token of its
   own before the push's is released. *)
let serve_push t site ~src ~gid ~writes ~origin_commit ~reply =
  Propagate.receive t.c ~site ~gid ~origin_commit writes ~forward:(fun () ->
      Cluster.inc_outstanding t.c;
      Batcher.push_now t.bat ~src:site ~dst:src (Push_ack { deliver = reply });
      0)

let server t site =
  let handle src = function
    | Read_request { item; owner; reply } ->
        Sim.spawn t.c.sim (fun () -> serve_read t site ~src ~item ~owner ~reply)
    | Read_reply { granted; deliver } ->
        Cluster.dec_outstanding t.c;
        deliver granted
    | Push { gid; writes; origin_commit; reply } ->
        Sim.spawn t.c.sim (fun () -> serve_push t site ~src ~gid ~writes ~origin_commit ~reply)
    | Push_ack { deliver } ->
        Cluster.dec_outstanding t.c;
        deliver ()
    | Release { owner } ->
        Sim.spawn t.c.sim (fun () ->
            Cluster.use_cpu t.c site t.c.params.cpu_msg;
            Lock_mgr.release_all t.c.locks.(site) ~owner;
            Cluster.dec_outstanding t.c)
  in
  Exec.serve t.net site (fun ~src batch -> List.iter (handle src) batch)

let describe_msg = function
  | Read_request _ -> ("read-request", 24)
  | Read_reply _ -> ("read-reply", 16)
  | Push { writes; _ } -> ("push", 24 + (8 * List.length writes))
  | Push_ack _ -> ("push-ack", 16)
  | Release _ -> ("release", 16)

let create (c : Cluster.t) =
  let net = Cluster.make_batch_net ~describe_one:describe_msg c in
  let t = { c; net; bat = Cluster.make_batcher c net; remote = 0 } in
  Exec.spawn_servers c (fun site -> [ (fun () -> server t site) ]);
  t

(* [batched] only for pushes: the lazy stream may park in the coalescer;
   synchronous lock traffic always flushes ahead of itself and ships now. *)
let rpc ?(batched = false) t ~site ~dst msg_of_reply =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  Sim.suspend (fun resume ->
      Cluster.inc_outstanding c;
      if batched then Batcher.push t.bat ~src:site ~dst (msg_of_reply resume)
      else Batcher.push_now t.bat ~src:site ~dst (msg_of_reply resume))

(* Remote read locks span sites, so the gid doubles as the lock owner. *)
let submit t (spec : Txn.spec) =
  let c = t.c in
  let remote_sites = Hashtbl.create 4 in
  let release_remote (f : Exec.frame) =
    Hashtbl.iter
      (fun primary () ->
        Cluster.inc_outstanding c;
        Batcher.push_now t.bat ~src:f.site ~dst:primary (Release { owner = f.attempt }))
      remote_sites
  in
  let run (f : Exec.frame) =
    let site = f.site in
    let local op = Exec.run_ops c ~gid:f.gid ~attempt:f.attempt ~site [ op ] in
    let rec go = function
      | [] -> Ok ()
      | (Txn.Write _ as op) :: rest -> (match local op with Ok () -> go rest | e -> e)
      | (Txn.Read item as op) :: rest ->
          let primary = c.placement.primary.(item) in
          if primary = site then (match local op with Ok () -> go rest | e -> e)
          else begin
            t.remote <- t.remote + 1;
            Hashtbl.replace remote_sites primary ();
            if
              rpc t ~site ~dst:primary (fun reply ->
                  Read_request { item; owner = f.attempt; reply })
            then begin
              (* Read the local replica under the primary's lock. *)
              Cluster.use_cpu c site c.params.cpu_op;
              ignore (Store.read c.stores.(site) item);
              go rest
            end
            else Error Txn.Remote_denied
          end
    in
    go spec.ops
  in
  Exec.primary ~attempt_is_gid:true c spec ~run ~cleanup:release_remote
    ~hold:(fun f ->
      (* Push the updates and hold every lock until all replicas ack. *)
      let origin_commit = Sim.now c.sim in
      let push resume =
        Push { gid = f.gid; writes = f.writes; origin_commit; reply = (fun () -> resume true) }
      in
      Exec.prop_wait f (fun () ->
          List.iter
            (fun dst -> ignore (rpc ~batched:true t ~site:f.site ~dst push))
            (Propagate.destinations c ~site:f.site f.writes)))
    ~publish:(fun f () -> release_remote f)

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
