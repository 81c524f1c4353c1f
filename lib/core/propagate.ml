module Sim = Repdb_sim.Sim
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event

let destinations (c : Cluster.t) ~site writes =
  (* One 16-bucket table (the smallest [Hashtbl.create] makes), filled in
     write order: its iteration order is the fan-out order, so it must not
     change with the table's sizing hint. *)
  let dests = Hashtbl.create 16 in
  List.iter
    (fun item ->
      Array.iter (fun s -> if s <> site then Hashtbl.replace dests s ()) c.placement.replicas.(item))
    writes;
  List.rev (Hashtbl.fold (fun s () acc -> s :: acc) dests [])

let ship (c : Cluster.t) dsts send =
  List.iter
    (fun dst ->
      Cluster.inc_outstanding c;
      send dst)
    dsts;
  List.length dsts

let charge (c : Cluster.t) ~site n =
  if n > 0 then Cluster.use_cpu c site (float_of_int n *. c.params.cpu_msg)

let fan_out c ~site writes send = charge c ~site (ship c (destinations c ~site writes) send)

let applied (c : Cluster.t) ~gid ~site ~origin_commit =
  Cluster.record_propagation c ~gid ~site ~delay:(Sim.now c.sim -. origin_commit)

let dequeued (c : Cluster.t) ~site ~gid =
  if Trace.on c.trace then Trace.record c.trace (Event.Secondary_recv { gid; site })

let accept (c : Cluster.t) ~site ?epoch () =
  match epoch with
  | Some epoch when Cluster.stale_epoch c ~site ~epoch ->
      Cluster.dec_outstanding c;
      false
  | _ ->
      Cluster.use_cpu c site c.params.cpu_msg;
      true

let receive (c : Cluster.t) ~site ?epoch ?(trace_recv = false) ?on_retry ?install ~gid
    ~origin_commit ?forward writes =
  if accept c ~site ?epoch () then begin
    if trace_recv then dequeued c ~site ~gid;
    let items = Routing.local_replicas c.placement site writes in
    (match install with
    | None -> Exec.apply_secondary ?on_retry c ~gid ~site items
    | Some install ->
        if items <> [] then begin
          install items;
          if Trace.on c.trace then Trace.record c.trace (Event.Secondary_commit { gid; site })
        end);
    (* Still atomic with the apply: record, forward, release the token. *)
    if items <> [] then applied c ~gid ~site ~origin_commit;
    let sent = match forward with Some forward -> forward () | None -> 0 in
    Cluster.dec_outstanding c;
    charge c ~site sent
  end
