module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Batcher = Repdb_net.Batcher
module Txn = Repdb_txn.Txn

let name = "lazy-master"
let updates_replicas = true

type msg =
  | Lock of Remote.msg
  | Push of { gid : int; writes : int list; origin_commit : float; reply : unit -> unit }
      (** Updates shipped to a replica site; acknowledged once applied. *)
  | Push_ack of { deliver : unit -> unit }

(* Only [Push] messages coalesce (they are the lazy propagation stream); the
   lock traffic ships via [push_now], which flushes any parked pushes on the
   pair first so the channel order the lock protocol relies on is
   preserved. A granted read then reads the local replica — fresh, because
   writers hold their locks until every replica acknowledged. *)
type t = { c : Cluster.t; net : msg list Network.t; bat : msg Batcher.t; locks : Remote.t }

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
    | Lock m -> Remote.handle t.locks ~site ~src m
    | Push { gid; writes; origin_commit; reply } ->
        Sim.spawn t.c.sim (fun () -> serve_push t site ~src ~gid ~writes ~origin_commit ~reply)
    | Push_ack { deliver } -> deliver ()
  in
  Exec.serve t.net site (fun ~src batch -> List.iter (handle src) batch)

let describe_msg = function
  | Lock m -> Remote.describe Lock_mgr.Shared m
  | Push { writes; _ } -> ("push", 24 + (8 * List.length writes))
  | Push_ack _ -> ("push-ack", 16)

let create (c : Cluster.t) =
  let net = Cluster.make_batch_net ~describe_one:describe_msg c in
  let bat = Cluster.make_batcher c net in
  let send ~src ~dst m = Batcher.push_now bat ~src ~dst (Lock m) in
  let t = { c; net; bat; locks = Remote.locks c Lock_mgr.Shared ~send } in
  Exec.spawn_servers c (fun site -> [ (fun () -> server t site) ]);
  t

let submit t (spec : Txn.spec) =
  let c = t.c in
  let held = Remote.held () in
  let release f = ignore (Remote.release t.locks f held) in
  let run (f : Exec.frame) =
    let site = f.site in
    let local op = Exec.run_ops c ~gid:f.gid ~attempt:f.attempt ~site [ op ] in
    let rec go = function
      | [] -> Ok ()
      | (Txn.Write _ as op) :: rest -> (match local op with Ok () -> go rest | e -> e)
      | (Txn.Read item as op) :: rest ->
          let primary = c.placement.primary.(item) in
          if primary = site then (match local op with Ok () -> go rest | e -> e)
          else
            match Remote.acquire t.locks f held ~dst:primary item with
            | Ok () ->
                (* Read the local replica under the primary's lock. *)
                Cluster.use_cpu c site c.params.cpu_op;
                ignore (Store.read c.stores.(site) item);
                go rest
            | e -> e
    in
    go spec.ops
  in
  Exec.primary c spec ~run ~cleanup:release
    ~hold:(fun f ->
      (* Push the updates and hold every lock until all replicas ack; the
         lazy stream may park in the coalescer. *)
      let origin_commit = Sim.now c.sim in
      Exec.prop_wait f (fun () ->
          List.iter
            (fun dst ->
              ignore
                (Remote.call c ~site:f.site (fun reply ->
                     Batcher.push t.bat ~src:f.site ~dst
                       (Push { gid = f.gid; writes = f.writes; origin_commit; reply }))))
            (Propagate.destinations c ~site:f.site f.writes)))
    ~publish:(fun f () -> release f)

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
