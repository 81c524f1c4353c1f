module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Resource = Repdb_sim.Resource
module Condvar = Repdb_sim.Condvar
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Wal = Repdb_store.Wal
module Lock_mgr = Repdb_lock.Lock_mgr
module Network = Repdb_net.Network
module Fault = Repdb_fault.Fault
module Reconfig = Repdb_reconfig.Reconfig
module History = Repdb_txn.History
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Stats = Repdb_obs.Stats
module Span = Repdb_obs.Span
module Timeline = Repdb_obs.Timeline
module Profile = Repdb_obs.Profile

(* The fields are documented in cluster.mli. *)

type quiescence = {
  mutable outstanding : int;
  mutable clients_running : int;
  mutable active_txns : int;
  quiesced : Condvar.t;
}

type faults = {
  injector : Fault.injector;
  wals : Wal.t array;
  site_up : bool array;
  up_cv : Condvar.t array;
}

type stale_reads = {
  apply_mtime : float array array;
  stale_hist : Stats.histogram;
}

type epochs = {
  mutable reconfiguring : bool;
  drained : Condvar.t;
  resume : Condvar.t;
  switch_hist : Stats.histogram;
  stall_hist : Stats.histogram;
}

type telemetry = {
  timeline : Timeline.t;
  commits : Stats.counter;
  aborts : Stats.counter;
  commits_prev : int array;
  aborts_prev : int array;
  lag_pending : int array;
  lag_applied : float array;
  lag_seen : bool array;
  mutable inflight : (unit -> int) list;
  mutable phi : unit -> float array;
}

type healing = {
  corrupted : (int * int, unit) Hashtbl.t;
  stale_drop_ctr : Stats.counter;
  corrupt_ctr : Stats.counter;
  mutable inflight_matching : ((src:int -> dst:int -> bool) -> int) list;
}

type t = {
  sim : Sim.t;
  params : Params.t;
  mutable placement : Placement.t;
  lat_fn : int -> int -> float;
  stores : Store.t array;
  locks : Lock_mgr.t array;
  cpus : Resource.t array;
  history : History.t;
  trace : Trace.t;
  stats : Stats.t;
  prop_hist : Stats.histogram;
  spans : Span.t;
  rng : Rng.t;
  mutable next_gid : int;
  mutable next_attempt : int;
  mutable config_epoch : int;
  quiesce : quiescence;
  mutable stopped : bool;
  faults : faults option;
  stale : stale_reads option;
  epochs : epochs option;
  telemetry : telemetry option;
  healing : healing option;
}

(* [Stats.pp_table] lists names in registration order, and a feature that is
   off must register none of its own, so the registrations below keep their
   order and each happens only when its feature is on. *)
let create_with ?latency ?(trace = false) ?trace_capacity (params : Params.t) placement =
  Params.validate params;
  let lat_fn = match latency with Some f -> f | None -> fun _ _ -> params.latency in
  let profile = if params.profile then Profile.create () else Profile.disabled in
  let sim = Sim.create ~profile () in
  let m = params.n_sites in
  let tr =
    if trace then Trace.create ?capacity:trace_capacity ~clock:(Sim.clock sim) ()
    else Trace.disabled
  in
  let stats = Stats.create ~n_sites:m () in
  let spans = Span.create ~stats ~trace:tr () in
  (* A healer failover rewires the tree just like an operator plan does, so
     heal runs provision for mid-run placement changes too. Only operator
     plans time their switches; heal-only runs keep an unregistered switch
     histogram, so their stats tables do not list it. *)
  let epochs =
    if Reconfig.is_empty params.reconfig && not params.heal then None
    else
      let stall_hist = Stats.histogram stats "reconfig.stall" in
      let switch_stats =
        if Reconfig.is_empty params.reconfig then Stats.create ~n_sites:m () else stats
      in
      let switch_hist = Stats.histogram switch_stats "reconfig.switch" in
      let drained = Condvar.create () and resume = Condvar.create () in
      Some { reconfiguring = false; drained; resume; switch_hist; stall_hist }
  in
  let stores =
    Array.init m (fun site ->
        Store.create ~site (Array.to_list (Placement.placed_at placement site)))
  in
  let policy : Lock_mgr.policy =
    match params.deadlock_policy with
    | `Timeout -> `Timeout params.lock_timeout
    | `Detect -> `Detect (Some params.lock_timeout)
  in
  (* Static topologies remap lock-table slots to the site's dense placed-item
     ranks: every lock a protocol takes at a site is for an item placed there,
     so the table holds |placed| entries instead of max-item-id — the
     difference between megabytes and gigabytes at 200 sites x 100k items.
     When the placement can change, new items can appear at a site mid-run
     (an added replica, a promoted primary), so the identity map
     (grow-on-demand) is kept. *)
  let locks =
    Array.init m (fun site ->
        let remap =
          if Option.is_none epochs then
            Some
              (fun item ->
                let slot = Placement.placed_index placement ~site item in
                if slot < 0 then
                  invalid_arg
                    (Printf.sprintf "Cluster: lock on item %d not placed at site %d" item site)
                else slot)
          else None
        in
        Lock_mgr.create ~sim ~policy ~site ~trace:tr ~stats ?remap
          ~on_wait:(fun ~owner ~dur -> Span.add spans ~owner Span.Lock_wait dur)
          ())
  in
  let faults =
    if Fault.is_empty params.faults then None
    else
      Some
        {
          injector = Fault.injector ~n_sites:m ~seed:((params.seed * 69069) + 13) params.faults;
          (* Redo logs hook every committed write; fault-free runs never
             crash, so only faulty runs pay for them. *)
          wals =
            Array.map
              (fun store ->
                let wal = Wal.create () in
                Wal.attach wal store;
                wal)
              stores;
          site_up = Array.make m true;
          up_cv = Array.init m (fun _ -> Condvar.create ());
        }
  in
  let healing =
    if not params.heal then None
    else
      let corrupt_ctr = Stats.counter stats "corrupt.items" in
      let stale_drop_ctr = Stats.counter stats "heal.stale_drop" in
      Some { corrupted = Hashtbl.create 16; stale_drop_ctr; corrupt_ctr; inflight_matching = [] }
  in
  (* The driver's clients bump these by name; registered here so every stats
     table lists them at the same place. *)
  let aborts = Stats.counter stats "txn.abort" in
  let commits = Stats.counter stats "txn.commit" in
  (* The apply-time matrix is m * n floats: 160 MB at 200 sites x 100k
     items, so only runs whose reads may consult it build it. *)
  let stale =
    if params.stale_reads <= 0.0 then None
    else
      let stale_hist = Stats.histogram stats "read.stale" in
      Some { apply_mtime = Array.init m (fun _ -> Array.make params.n_items 0.0); stale_hist }
  in
  let prop_hist = Stats.histogram stats "prop.delay" in
  let telemetry =
    if params.timeline_every <= 0.0 then None
    else
      Some
        {
          timeline = Timeline.create ~n_sites:m ~interval:params.timeline_every ~phi:params.heal ();
          commits;
          aborts;
          commits_prev = Array.make m 0;
          aborts_prev = Array.make m 0;
          lag_pending = Array.make m 0;
          lag_applied = Array.make m 0.0;
          lag_seen = Array.make m false;
          inflight = [];
          phi = (fun () -> Array.make m 0.0);
        }
  in
  {
    sim;
    params;
    placement;
    lat_fn;
    stores;
    locks;
    cpus = Array.init (min params.n_machines m) (fun _ -> Resource.create ~capacity:1 ());
    history = History.create ~enabled:params.record_history ~n_sites:m ();
    trace = tr;
    stats;
    prop_hist;
    spans;
    rng = Rng.create ((params.seed * 31) + 7);
    next_gid = 0;
    next_attempt = 0;
    config_epoch = 0;
    quiesce = { outstanding = 0; clients_running = 0; active_txns = 0; quiesced = Condvar.create () };
    stopped = false;
    faults;
    stale;
    epochs;
    telemetry;
    healing;
  }

let create ?trace ?trace_capacity (params : Params.t) =
  let placement_rng = Rng.create params.seed in
  create_with ?trace ?trace_capacity params (Placement.generate placement_rng params)

let fresh_gid t =
  t.next_gid <- t.next_gid + 1;
  t.next_gid

let fresh_attempt t =
  t.next_attempt <- t.next_attempt + 1;
  t.next_attempt

let use_cpu t site d =
  if d > 0.0 then begin
    let machine = site mod Array.length t.cpus in
    let d =
      if machine = t.params.straggler_machine then d *. t.params.straggler_factor else d
    in
    Resource.use t.cpus.(machine) d
  end

(* Every network and batcher reports its in-flight units to the timeline's
   sample and, per site pair, to the healer's weak failover drain. *)
let track_inflight t ~total ~matching =
  Option.iter (fun tm -> tm.inflight <- total :: tm.inflight) t.telemetry;
  Option.iter (fun h -> h.inflight_matching <- matching :: h.inflight_matching) t.healing

let make_net ?arity ~describe t =
  let net =
    Network.create ~sim:t.sim ~n_sites:t.params.n_sites ~latency:t.lat_fn ?arity ~trace:t.trace
      ~describe ~stats:t.stats
      ?injector:(Option.map (fun f -> f.injector) t.faults)
      ()
  in
  track_inflight t
    ~total:(fun () -> Network.in_flight net)
    ~matching:(fun f -> Network.in_flight_matching net ~f);
  net

(* A net whose messages are per-pair coalesced update runs. Counters and
   traces account logical updates (a singleton batch describes exactly like
   the bare message did pre-batching, so batch_size=1 traces are unchanged);
   the [inflight] sample also counts updates still parked in the batcher. *)
let make_batch_net ~describe_one t =
  let describe = function
    | [ m ] -> describe_one m
    | ms ->
        let kind = match ms with m :: _ -> fst (describe_one m) | [] -> "batch" in
        ( Printf.sprintf "%s[%d]" kind (List.length ms),
          List.fold_left (fun acc m -> acc + snd (describe_one m)) 8 ms )
  in
  make_net ~arity:List.length ~describe t

let make_batcher t net =
  let bat =
    Repdb_net.Batcher.create ~sim:t.sim ~n_sites:t.params.n_sites ~size:t.params.batch_size
      ~linger_ms:t.params.batch_linger_ms
      ~ship:(fun ~src ~dst batch -> Network.send net ~src ~dst batch)
      ()
  in
  let matching f =
    let n = t.params.n_sites in
    let parked = ref 0 in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if f ~src ~dst then parked := !parked + Repdb_net.Batcher.pending bat ~src ~dst
      done
    done;
    !parked
  in
  track_inflight t ~total:(fun () -> matching (fun ~src:_ ~dst:_ -> true)) ~matching;
  bat

(* --- transaction lifecycle: phase span + trace ----------------------------- *)

(* The txn begin/commit/abort helpers double as the span lifecycle hooks:
   the transaction frame ([Exec]) calls each exactly once per client
   attempt. *)
let trace_txn_begin t ~gid ~attempt ~site =
  Span.begin_ t.spans ~owner:attempt ~gid ~site ~now:(Sim.now t.sim);
  if Trace.on t.trace then Trace.record t.trace (Event.Txn_begin { gid; site })

let trace_txn_commit t ~gid ~attempt ~site =
  Span.finish t.spans ~owner:attempt ~now:(Sim.now t.sim);
  if Trace.on t.trace then Trace.record t.trace (Event.Txn_commit { gid; site })

let trace_txn_abort t ~gid ~attempt ~site reason =
  Span.finish t.spans ~owner:attempt ~now:(Sim.now t.sim);
  if Trace.on t.trace then
    Trace.record t.trace (Event.Txn_abort { gid; site; reason = Repdb_txn.Txn.string_of_abort reason })

let profile_cat t name = Profile.cat (Sim.profile t.sim) name

(* --- bounded-staleness reads ---------------------------------------------- *)

let note_apply t ~site ~item =
  match t.stale with Some s -> s.apply_mtime.(site).(item) <- Sim.now t.sim | None -> ()

let staleness t ~site ~item =
  match t.stale with
  | Some s -> Sim.now t.sim -. s.apply_mtime.(site).(item)
  | None -> Sim.now t.sim

let record_stale_read t ~site ~item ~staleness =
  Option.iter (fun s -> Stats.observe s.stale_hist ~site staleness) t.stale;
  if Trace.on t.trace then Trace.record t.trace (Event.Stale_read { site; item; staleness })

(* --- replication-lag bookkeeping ------------------------------------------ *)

(* Called by the transaction frame at origin-commit time with the committed
   write set: every site holding a replica of a written item will eventually
   apply this transaction, so it gains one pending update. Counted once per
   (transaction, site) via the scratch array. *)
let note_destined t ~items =
  match t.telemetry with
  | None -> ()
  | Some tm ->
      List.iter
        (fun item ->
          Array.iter
            (fun site ->
              if not tm.lag_seen.(site) then begin
                tm.lag_seen.(site) <- true;
                tm.lag_pending.(site) <- tm.lag_pending.(site) + 1
              end)
            t.placement.Placement.replicas.(item))
        items;
      Array.iteri (fun s seen -> if seen then tm.lag_seen.(s) <- false) tm.lag_seen

(* Record a replica update in the per-site registry and (when on) the
   trace. *)
let record_propagation t ~gid ~site ~delay =
  Stats.observe t.prop_hist ~site delay;
  (match t.telemetry with
  | None -> ()
  | Some tm ->
      if tm.lag_pending.(site) > 0 then tm.lag_pending.(site) <- tm.lag_pending.(site) - 1;
      let origin = Sim.now t.sim -. delay in
      if origin > tm.lag_applied.(site) then tm.lag_applied.(site) <- origin);
  if Trace.on t.trace then Trace.record t.trace (Event.Prop_apply { gid; site; delay })

(* Replication lag of [site] right now: with updates pending, the age of the
   newest applied origin commit (growing in real time while the backlog
   persists, e.g. across a partition); 0 once caught up. *)
let lag_of t tm site =
  if tm.lag_pending.(site) > 0 then Float.max 0.0 (Sim.now t.sim -. tm.lag_applied.(site))
  else 0.0

let sample_timeline t =
  match t.telemetry with
  | None -> ()
  | Some tm ->
      let m = t.params.n_sites in
      let commits = Array.make m 0 and aborts = Array.make m 0 in
      for s = 0 to m - 1 do
        let c = Stats.counter_value tm.commits ~site:s in
        commits.(s) <- c - tm.commits_prev.(s);
        tm.commits_prev.(s) <- c;
        let a = Stats.counter_value tm.aborts ~site:s in
        aborts.(s) <- a - tm.aborts_prev.(s);
        tm.aborts_prev.(s) <- a
      done;
      Timeline.push tm.timeline
        {
          Timeline.r_time = Sim.now t.sim;
          r_active = t.quiesce.active_txns;
          r_inflight = List.fold_left (fun acc f -> acc + f ()) 0 tm.inflight;
          r_commits = commits;
          r_aborts = aborts;
          r_lag = Array.init m (fun s -> lag_of t tm s);
          r_pending = Array.copy tm.lag_pending;
          r_locks = Array.init m (fun s -> Lock_mgr.locks_held t.locks.(s));
          r_waiters = Array.init m (fun s -> Lock_mgr.lock_waiters t.locks.(s));
          r_phi = (if Timeline.has_phi tm.timeline then tm.phi () else [||]);
        }

let set_phi_fn t f = Option.iter (fun tm -> tm.phi <- f) t.telemetry

(* --- quiescence ------------------------------------------------------------ *)

let quiescent t = t.quiesce.clients_running = 0 && t.quiesce.outstanding = 0
let maybe_wake t = if quiescent t then Condvar.broadcast t.quiesce.quiesced

let drained_now t = t.quiesce.active_txns = 0 && t.quiesce.outstanding = 0

let maybe_drained t =
  match t.epochs with
  | Some e when e.reconfiguring && drained_now t -> Condvar.broadcast e.drained
  | _ -> ()

let inc_outstanding t = t.quiesce.outstanding <- t.quiesce.outstanding + 1

let dec_outstanding t =
  t.quiesce.outstanding <- t.quiesce.outstanding - 1;
  assert (t.quiesce.outstanding >= 0);
  maybe_wake t;
  maybe_drained t

let client_started t = t.quiesce.clients_running <- t.quiesce.clients_running + 1

let client_finished t =
  t.quiesce.clients_running <- t.quiesce.clients_running - 1;
  assert (t.quiesce.clients_running >= 0);
  maybe_wake t

let await_quiescence t =
  while not (quiescent t) do
    Condvar.await t.quiesce.quiesced
  done;
  t.stopped <- true

(* --- fault injection ------------------------------------------------------ *)

let site_up t site = match t.faults with Some f -> f.site_up.(site) | None -> true

let await_site_up t site =
  match t.faults with
  | None -> ()
  | Some f ->
      while not f.site_up.(site) do
        Condvar.await f.up_cv.(site)
      done

let crash_site t f ~site =
  f.site_up.(site) <- false;
  Stats.incr (Stats.counter t.stats "fault.crash") ~site;
  if Trace.on t.trace then Trace.record t.trace (Event.Site_crash { site })

let recover_site t f ~site ~downtime =
  let wal = f.wals.(site) in
  let lost = t.stores.(site) in
  let recovered = Wal.recover wal ~site in
  (* The redo log hooks every committed write, so the rebuild must reproduce
     the pre-crash image exactly; a mismatch means durability is broken and
     any run that continued from it would be meaningless. The one exception:
     copies scrambled by a corrupt@ clause, which bypasses the log — there
     the rebuild holds the true value, so recovery doubles as repair and the
     mark is cleared. *)
  let repaired ri =
    match t.healing with
    | Some h when Hashtbl.mem h.corrupted (site, ri) ->
        Hashtbl.remove h.corrupted (site, ri);
        true
    | _ -> false
  in
  let rec_contents = Store.contents recovered and lost_contents = Store.contents lost in
  let recovery_ok =
    List.compare_lengths rec_contents lost_contents = 0
    && List.for_all2
         (fun (ri, rv) (li, lv) -> ri = li && (Value.equal rv lv || repaired ri))
         rec_contents lost_contents
  in
  if not recovery_ok then
    failwith (Printf.sprintf "Cluster: recovery of site %d diverged from its redo log" site);
  t.stores.(site) <- recovered;
  Wal.reattach wal recovered;
  f.site_up.(site) <- true;
  if Trace.on t.trace then Trace.record t.trace (Event.Site_recover { site; downtime });
  Condvar.broadcast f.up_cv.(site)

(* --- online reconfiguration ----------------------------------------------- *)

let txn_started t = t.quiesce.active_txns <- t.quiesce.active_txns + 1

let txn_finished t =
  t.quiesce.active_txns <- t.quiesce.active_txns - 1;
  assert (t.quiesce.active_txns >= 0);
  maybe_drained t

let epochs t =
  match t.epochs with
  | Some e -> e
  | None -> invalid_arg "Cluster: no epoch switch is planned (no --reconfig, no --heal)"

let await_drained t =
  let e = epochs t in
  while not (drained_now t) do
    Condvar.await e.drained
  done

(* Serialize epoch switches: the healer's failovers and the operator's
   reconfiguration plan share the [reconfiguring] flag, so whichever
   coordinator arrives second waits for the resume broadcast. *)
let acquire_switch t =
  let e = epochs t in
  while e.reconfiguring do
    Condvar.await e.resume
  done;
  e.reconfiguring <- true

let release_switch t =
  let e = epochs t in
  e.reconfiguring <- false;
  Condvar.broadcast e.resume

(* Clients call this before generating each transaction; while an epoch
   switch is in progress they stall here, and the stall is charged to the
   originating site so the mid-run throughput dip is measurable. *)
let reconfig_barrier t ~site =
  match t.epochs with
  | Some e when e.reconfiguring ->
      let t0 = Sim.now t.sim in
      while e.reconfiguring do
        Condvar.await e.resume
      done;
      Stats.observe e.stall_hist ~site (Sim.now t.sim -. t0)
  | _ -> ()

(* --- self-healing hooks ---------------------------------------------------- *)

(* In-flight messages the failover drain may ignore: traffic on a pair with a
   down endpoint or an active partition between them is parked by the acked
   links for the whole outage, and waiting for it would stall the epoch
   switch for the downtime the failover is meant to mask. Without faults
   nothing is ever parked. *)
let parked_outstanding t =
  match (t.faults, t.healing) with
  | Some f, Some h ->
      let pred ~src ~dst =
        (not f.site_up.(src)) || (not f.site_up.(dst))
        || not (Fault.reachable f.injector ~src ~dst ~at:(Sim.now t.sim))
      in
      List.fold_left (fun acc matching -> acc + matching pred) 0 h.inflight_matching
  | _ -> 0

(* The healer's weak drain: every transaction attempt finished and nothing in
   flight except traffic parked behind the outage itself. *)
let weak_drained t =
  t.quiesce.active_txns = 0 && t.quiesce.outstanding - parked_outstanding t <= 0

(* A propagation message routed under an earlier epoch surfaced after a
   weak-drain failover switch (it was parked behind the outage when routing
   moved on). Under healing it is dropped with accounting — anti-entropy is
   the convergence backstop; without healing the strong drain makes this
   impossible, so it stays a hard error. *)
let stale_epoch t ~site ~epoch =
  if epoch = t.config_epoch then false
  else begin
    (match t.healing with
    | Some h -> Stats.incr h.stale_drop_ctr ~site
    | None ->
        failwith
          (Printf.sprintf "Cluster: stale epoch %d at site %d without healing" epoch site));
    true
  end

(* Silently scramble replica copies at [site]: each non-primary copy is
   overwritten with probability [prob] via [Store.restore], which bypasses
   the redo-log hook — the damage is invisible to WAL recovery and only the
   anti-entropy digests can find it. Primary copies are never touched (they
   are the repair source of truth). The RNG is derived from the seed and the
   clause index alone, so corruption is independent of workload progress.
   [Params.validate] admits corrupt@ clauses only under healing. *)
let corrupt_site t h ~site ~prob ~clause =
  let rng = Rng.create ((t.params.seed * 131071) + (clause * 7919) + 17) in
  let store = t.stores.(site) in
  let n = ref 0 in
  Array.iter
    (fun item ->
      if t.placement.Placement.primary.(item) <> site && Rng.float rng < prob then begin
        let v = Store.read store item in
        Store.restore store item
          (Value.write ~writer:(-2) ~payload:(Printf.sprintf "corrupt.%d" clause) v);
        Hashtbl.replace h.corrupted (site, item) ();
        incr n
      end)
    (Placement.placed_at t.placement site);
  Stats.add h.corrupt_ctr ~site !n;
  Stats.incr (Stats.counter t.stats "corrupt.events") ~site;
  if Trace.on t.trace then Trace.record t.trace (Event.Corrupt { site; items = !n })

let clear_corrupt t ~site ~item =
  Option.iter (fun h -> Hashtbl.remove h.corrupted (site, item)) t.healing

let schedule_faults t =
  match t.faults with
  | None -> ()
  | Some f ->
      let sched = Fault.schedule f.injector in
      List.iter
        (fun (c : Fault.crash) ->
          Sim.at t.sim c.at (fun () -> crash_site t f ~site:c.site);
          Sim.at t.sim (c.at +. c.down_for) (fun () ->
              recover_site t f ~site:c.site ~downtime:c.down_for))
        sched.crashes;
      List.iteri
        (fun clause (co : Fault.corruption) ->
          Sim.at t.sim co.c_at (fun () ->
              match t.healing with
              | Some h when f.site_up.(co.c_site) ->
                  corrupt_site t h ~site:co.c_site ~prob:co.c_prob ~clause
              | _ -> ()))
        sched.corruptions;
      (* Partitions need no link-level action here — the injector's transmit
         plans already park cross-cut messages — but the begin/heal instants
         are counted and traced. *)
      List.iter
        (fun (p : Fault.partition) ->
          let groups = Fault.string_of_groups p.groups in
          Sim.at t.sim p.from_t (fun () ->
              Stats.incr (Stats.counter t.stats "fault.partition") ~site:0;
              if Trace.on t.trace then Trace.record t.trace (Event.Partition_begin { groups }));
          Sim.at t.sim p.until_t (fun () ->
              if Trace.on t.trace then Trace.record t.trace (Event.Partition_heal { groups })))
        sched.partitions
