module Sim = Repdb_sim.Sim
module Network = Repdb_net.Network
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Placement = Repdb_workload.Placement
module Generator = Repdb_workload.Generator
module Reconfig = Repdb_reconfig.Reconfig
module Stats = Repdb_obs.Stats
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event

type xfer = { item : int; value : Value.t }

let describe_xfer (_ : xfer) = ("state-transfer", 24)

(* New (item, site) replica pairs introduced by [np], ascending — the values
   that must be shipped before routing can switch. *)
let additions (old_pl : Placement.t) (np : Placement.t) =
  let acc = ref [] in
  for item = np.n_items - 1 downto 0 do
    (* Untouched rows are shared by the incremental [Placement.apply_step],
       so physical equality skips the per-site membership checks wholesale. *)
    if np.replicas.(item) != old_pl.replicas.(item) then
      Array.iter
        (fun site ->
          if not (Placement.has_replica old_pl ~site item) then acc := (item, site) :: !acc)
        np.replicas.(item)
  done;
  !acc

(* One reconfiguration step, live:
   quiesce -> state transfer -> quiesce -> atomic switch -> resume. *)
let execute_step (c : Cluster.t) (e : Cluster.epochs) net ~reconfigure ~gen (ts : Reconfig.timed) =
  let t0 = Sim.now c.sim in
  if Trace.on c.trace then Trace.record c.trace (Event.Reconfig_begin { epoch = c.config_epoch });
  (* Stall clients at the barrier and wait until no transaction attempt is
     executing and no propagation is in flight: the old epoch is fully
     applied everywhere it will ever be. [acquire_switch] also serializes
     against a healer failover in progress; it only takes the flag, so the
     first drain follows it. *)
  Cluster.acquire_switch c;
  Cluster.await_drained c;
  let np = Placement.apply_step c.placement ts.step in
  (* Bulk-copy current primary values to newly added replicas. The transfer
     rides the typed network (latency, CPU, fault injection), and each
     install is counted outstanding until applied, so the second drain
     below waits for the last install — even one delayed by a crashed
     destination, since acked links deliver it after the restart. *)
  List.iter
    (fun (item, dst) ->
      let src = np.primary.(item) in
      Cluster.inc_outstanding c;
      Network.send net ~src ~dst { item; value = Store.read c.stores.(src) item };
      Cluster.use_cpu c src c.params.cpu_msg)
    (additions c.placement np);
  Cluster.await_drained c;
  (* Atomic switch: no process can run between these assignments (the
     simulator only interleaves at blocking points). *)
  c.placement <- np;
  reconfigure ();
  Generator.refresh gen np;
  c.config_epoch <- c.config_epoch + 1;
  let switch = Sim.now c.sim -. t0 in
  Stats.observe e.switch_hist ~site:0 switch;
  let epoch = c.config_epoch in
  if Trace.on c.trace then Trace.record c.trace (Event.Reconfig_switch { epoch; duration = switch });
  Cluster.release_switch c;
  if Trace.on c.trace then
    Trace.record c.trace (Event.Reconfig_done { epoch; duration = Sim.now c.sim -. t0 })

let receive_server (c : Cluster.t) net xfer_ctr site =
  Exec.serve net site (fun ~src (x : xfer) ->
      Cluster.use_cpu c site c.params.cpu_msg;
      Store.install c.stores.(site) x.item x.value;
      Stats.incr xfer_ctr ~site;
      if Trace.on c.trace then
        Trace.record c.trace (Event.State_transfer { item = x.item; src; dst = site });
      Cluster.dec_outstanding c)

let schedule (c : Cluster.t) ~reconfigure ~gen =
  let plan = c.params.reconfig in
  match c.epochs with
  | Some e when not (Reconfig.is_empty plan) ->
    let net = Cluster.make_net c ~describe:describe_xfer in
    let xfer_ctr = Stats.counter c.stats "reconfig.transfer" in
    let cat = Cluster.profile_cat c "reconfig" in
    for site = 0 to c.params.n_sites - 1 do
      Sim.spawn ~cat c.sim (fun () -> receive_server c net xfer_ctr site)
    done;
    Sim.spawn ~cat c.sim (fun () ->
        List.iter
          (fun (ts : Reconfig.timed) ->
            let now = Sim.now c.sim in
            if ts.at > now then Sim.delay (ts.at -. now);
            execute_step c e net ~reconfigure ~gen ts)
          plan.steps)
  | _ -> ()
