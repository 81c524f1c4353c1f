module Sim = Repdb_sim.Sim
module Mailbox = Repdb_sim.Mailbox
module Tree = Repdb_graph.Tree
module Network = Repdb_net.Network
module Batcher = Repdb_net.Batcher
module Placement = Repdb_workload.Placement
module Txn = Repdb_txn.Txn
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event

let name = "dag-wt"
let updates_replicas = true

type msg = { gid : int; writes : int list; origin_commit : float; epoch : int }

type t = {
  c : Cluster.t;
  mutable tr : Tree.t;
  net : msg list Network.t; (* one physical message = one coalesced run *)
  bat : msg Batcher.t;
  mutable in_subtree : Routing.subtree_map;
      (* site -> item bitset -> some replica lives in subtree(site) *)
}

let tree t = t.tr

(* Children whose subtree holds a replica of some written item. *)
let relevant_children t site writes =
  Routing.relevant_children t.in_subtree t.tr site writes

(* Forward a subtransaction to the relevant children; non-blocking, so it can
   sit inside an atomic commit section. Returns the number of sends. The
   outstanding token is taken per update at push time, so updates parked in
   the batcher hold the quiescence/drain machinery open until they flush. *)
let forward t site (msg : msg) =
  Propagate.ship t.c (relevant_children t site msg.writes) (fun child ->
      Batcher.push t.bat ~src:site ~dst:child msg)

(* Dequeue order = receive order (the FIFO the protocol's correctness rests
   on), and a batch preserves its pushes' order; the trace records it so
   tests can assert commit order. The epoch fence drops a message parked
   behind a healer failover's outage (anti-entropy repairs what it carried);
   an operator switch drains first, so none arrive then. *)
let applier t site =
  Exec.serve t.net site (fun ~src:_ ->
      List.iter (fun (msg : msg) ->
          Propagate.dequeued t.c ~site ~gid:msg.gid;
          if Trace.on t.c.trace then
            Trace.record t.c.trace
              (Event.Queue_depth
                 { site; queue = "fifo"; depth = Mailbox.length (Network.inbox t.net site) });
          Propagate.receive t.c ~site ~epoch:msg.epoch ~gid:msg.gid ~origin_commit:msg.origin_commit
            ~forward:(fun () -> forward t site msg)
            msg.writes))

let describe_msg (msg : msg) = ("secondary", 24 + (8 * List.length msg.writes))

let check_tree (c : Cluster.t) tr =
  let g = Placement.copy_graph c.placement in
  if not (Repdb_graph.Digraph.is_dag g) then
    invalid_arg "Dag_wt: copy graph has a cycle (use the BackEdge protocol)";
  if not (Tree.satisfies g tr) then invalid_arg "Dag_wt: tree lacks the ancestor property"

let create_with_tree (c : Cluster.t) tr =
  check_tree c tr;
  let net = Cluster.make_batch_net ~describe_one:describe_msg c in
  let bat = Cluster.make_batcher c net in
  let t = { c; tr; net; bat; in_subtree = Routing.subtree_replicas c.placement tr } in
  (* A reconfiguration — operator-planned or a healer failover — can give any
     site a tree parent later, so under either every site gets an applier
     (idle at roots); without one, spawn exactly as before — spawn counts
     feed the event tie-break order, and static runs must stay
     byte-identical. *)
  Exec.spawn_servers c (fun site ->
      if Option.is_some c.epochs || Tree.parent tr site <> -1 then [ (fun () -> applier t site) ]
      else []);
  t

let create (c : Cluster.t) =
  let g = Placement.copy_graph c.placement in
  if not (Repdb_graph.Digraph.is_dag g) then
    invalid_arg "Dag_wt: copy graph has a cycle (use the BackEdge protocol)";
  create_with_tree c (Tree.of_dag g)

(* Epoch switch (cluster drained, placement already swapped): rebuild the
   tree and the subtree-replica routing map for the new copy graph. *)
let reconfigure =
  Some
    (fun t ->
      let g = Placement.copy_graph t.c.placement in
      if not (Repdb_graph.Digraph.is_dag g) then
        invalid_arg "Dag_wt: reconfiguration made the copy graph cyclic";
      let tr = Tree.of_dag g in
      t.tr <- tr;
      t.in_subtree <- Routing.subtree_replicas t.c.placement tr)

let submit t (spec : Txn.spec) =
  let c = t.c in
  Exec.primary c spec
    ~run:(fun f -> Exec.run_ops c ~gid:f.gid ~attempt:f.attempt ~site:f.site spec.ops)
    ~publish:(fun f () ->
      let msg =
        { gid = f.gid; writes = f.writes; origin_commit = Sim.now c.sim; epoch = c.config_epoch }
      in
      Propagate.charge c ~site:f.site (if f.writes = [] then 0 else forward t f.site msg))
