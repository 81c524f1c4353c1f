module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "naive"
let updates_replicas = true

type msg = { gid : int; writes : int list; origin_commit : float }

type t = { c : Cluster.t; net : msg Network.t }

let applier t site =
  Exec.serve t.net site (fun ~src:_ msg ->
      Propagate.receive t.c ~site ~gid:msg.gid ~origin_commit:msg.origin_commit msg.writes)

let describe_msg (msg : msg) = ("update", 24 + (8 * List.length msg.writes))

let create (c : Cluster.t) =
  let t = { c; net = Cluster.make_net ~describe:describe_msg c } in
  Exec.spawn_servers c (fun site -> [ (fun () -> applier t site) ]);
  t

let submit t (spec : Txn.spec) =
  let c = t.c in
  Exec.primary c spec
    ~run:(fun f -> Exec.run_ops c ~gid:f.gid ~attempt:f.attempt ~site:f.site spec.ops)
    ~publish:(fun f () ->
      (* Indiscriminate: straight to every replica site, no ordering. *)
      let msg = { gid = f.gid; writes = f.writes; origin_commit = Repdb_sim.Sim.now c.sim } in
      Propagate.fan_out c ~site:f.site f.writes (fun dst ->
          Network.send t.net ~src:f.site ~dst msg))

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
