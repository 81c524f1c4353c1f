module Sim = Repdb_sim.Sim
module Lock_mgr = Repdb_lock.Lock_mgr
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "eager"
let updates_replicas = true

type msg =
  | Lock of Remote.msg
  | Prepare of { owner : int; reply : unit -> unit }
  | Prepare_ack of { deliver : unit -> unit }
  | Decide of { owner : int; gid : int; commit : bool; origin_commit : float }

type t = {
  c : Cluster.t;
  net : msg Network.t;
  staged : (int, int list) Hashtbl.t array; (* per site: owner -> staged items *)
  locks : Remote.t;
}

(* A granted write lock stages the write until the decision. *)
let stage (c : Cluster.t) staged ~site ~owner item =
  Cluster.use_cpu c site c.params.cpu_op;
  let items = Option.value ~default:[] (Hashtbl.find_opt staged.(site) owner) in
  Hashtbl.replace staged.(site) owner (item :: items)

let decide t site ~owner ~gid ~commit ~origin_commit =
  let c = t.c in
  Cluster.use_cpu c site c.params.cpu_msg;
  (match Hashtbl.find_opt t.staged.(site) owner with
  | Some items ->
      Hashtbl.remove t.staged.(site) owner;
      if commit then begin
        Exec.apply_writes c ~gid ~site (List.sort_uniq compare items);
        Propagate.applied c ~gid ~site ~origin_commit
      end
      else Repdb_txn.History.discard_attempt c.history ~attempt:owner
  | None -> ());
  Lock_mgr.release_all c.locks.(site) ~owner;
  Cluster.dec_outstanding c

let server t site =
  Exec.serve t.net site (fun ~src -> function
    | Lock m -> Remote.handle t.locks ~site ~src m
    | Prepare { owner = _; reply } ->
        (* Locks are already held and writes staged: always vote yes. *)
        Network.send t.net ~src:site ~dst:src (Prepare_ack { deliver = reply })
    | Prepare_ack { deliver } -> deliver ()
    | Decide { owner; gid; commit; origin_commit } ->
        Sim.spawn t.c.sim (fun () -> decide t site ~owner ~gid ~commit ~origin_commit))

let describe_msg = function
  | Lock m -> Remote.describe Lock_mgr.Exclusive m
  | Prepare _ -> ("prepare", 16)
  | Prepare_ack _ -> ("prepare-ack", 16)
  | Decide _ -> ("decide", 32)

let create (c : Cluster.t) =
  let net = Cluster.make_net ~describe:describe_msg c in
  let staged = Array.init c.params.n_sites (fun _ -> Hashtbl.create 16) in
  let send ~src ~dst m = Network.send net ~src ~dst (Lock m) in
  let locks = Remote.locks ~on_grant:(stage c staged) c Lock_mgr.Exclusive ~send in
  let t = { c; net; staged; locks } in
  Exec.spawn_servers c (fun site -> [ (fun () -> server t site) ]);
  t

let submit t (spec : Txn.spec) =
  let c = t.c in
  let participants = Remote.held () in
  let decide_all (f : Exec.frame) ~commit ~origin_commit =
    Hashtbl.iter
      (fun dst () ->
        Cluster.inc_outstanding c;
        Network.send t.net ~src:f.site ~dst
          (Decide { owner = f.attempt; gid = f.gid; commit; origin_commit }))
      participants
  in
  let run (f : Exec.frame) =
    let site = f.site in
    let write_everywhere item =
      let reps = c.placement.replicas.(item) in
      let rec go i =
        if i >= Array.length reps then Ok ()
        else begin
          (* A lock granted after the deadline is freed by the abort's
             Decide, which follows the request on the same FIFO pair. *)
          match Remote.acquire t.locks f participants ~dst:reps.(i) item with
          | Ok () ->
              Cluster.use_cpu c site c.params.cpu_msg;
              go (i + 1)
          | e -> e
        end
      in
      go 0
    in
    let rec go = function
      | [] -> Ok ()
      | op :: rest -> (
          match Exec.run_ops c ~gid:f.gid ~attempt:f.attempt ~site [ op ] with
          | Error reason -> Error reason
          | Ok () -> (
              match op with
              | Txn.Read _ -> go rest
              | Txn.Write item -> (match write_everywhere item with Ok () -> go rest | e -> e)))
    in
    go spec.ops
  in
  Exec.primary c spec ~run
    ~cleanup:(decide_all ~commit:false ~origin_commit:0.0)
    ~prepare:(fun f () ->
      (* Phase 1: prepare round to every participant (the eager
         propagation wait). *)
      Exec.prop_wait f (fun () ->
          Hashtbl.iter
            (fun dst () ->
              ignore
                (Remote.call c ~site:f.site (fun reply ->
                     Network.send t.net ~src:f.site ~dst (Prepare { owner = f.attempt; reply }))))
            participants);
      Ok ())
    ~publish:(fun f () ->
      (* Phase 2: committed locally; decide everywhere. *)
      decide_all f ~commit:true ~origin_commit:(Sim.now c.sim))

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
