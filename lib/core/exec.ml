module Sim = Repdb_sim.Sim
module Txn = Repdb_txn.Txn
module History = Repdb_txn.History
module Lock_mgr = Repdb_lock.Lock_mgr
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Span = Repdb_obs.Span
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event

let abort_reason_of_outcome = function
  | Lock_mgr.Timed_out -> Txn.Lock_timeout
  | Lock_mgr.Deadlock_victim -> Txn.Deadlock
  | Lock_mgr.Granted -> invalid_arg "Exec.abort_reason_of_outcome: Granted"

let no_read _ _ = ()

let run_op ?(on_read = no_read) (c : Cluster.t) ~gid ~attempt ~site op =
  let locks = c.locks.(site) in
  let item, mode, kind =
    match op with
    | Txn.Read item -> (item, Lock_mgr.Shared, History.R)
    | Txn.Write item -> (item, Lock_mgr.Exclusive, History.W)
  in
  match Lock_mgr.acquire locks ~owner:attempt item mode with
  | Lock_mgr.Granted ->
      Cluster.use_cpu c site c.params.cpu_op;
      (match op with
      | Txn.Read item -> on_read item (Store.read c.stores.(site) item)
      | Txn.Write _ -> () (* deferred to commit *));
      History.record c.history ~site ~item ~gid ~attempt kind;
      Ok ()
  | (Lock_mgr.Timed_out | Lock_mgr.Deadlock_victim) as o -> Error (abort_reason_of_outcome o)

let run_ops ?on_read c ~gid ~attempt ~site ops =
  let rec go = function
    | [] -> Ok ()
    | op :: rest -> (
        match run_op ?on_read c ~gid ~attempt ~site op with Ok () -> go rest | e -> e)
  in
  go ops

let acquire_writes c ~gid ~attempt ~site items =
  run_ops c ~gid ~attempt ~site (List.map (fun item -> Txn.Write item) items)

let apply_writes (c : Cluster.t) ~gid ~site items =
  List.iter
    (fun item ->
      Store.apply c.stores.(site) item ~writer:gid ();
      Cluster.note_apply c ~site ~item)
    items

let apply_versioned ?(on_apply = no_read) (c : Cluster.t) ~gid ~site vwrites =
  let attempt = Cluster.fresh_attempt c in
  List.iter
    (fun (item, version) ->
      Store.apply c.stores.(site) item ~writer:gid ();
      assert ((Store.read c.stores.(site) item).Value.version = version);
      on_apply item version;
      Cluster.note_apply c ~site ~item;
      History.record c.history ~site ~item ~gid ~attempt ~version History.W)
    vwrites

let commit_cost ?owner (c : Cluster.t) ~site =
  match owner with
  | None -> Cluster.use_cpu c site c.params.cpu_commit
  | Some owner ->
      let t0 = Sim.now c.sim in
      Cluster.use_cpu c site c.params.cpu_commit;
      Span.add c.spans ~owner Span.Commit (Sim.now c.sim -. t0)

let release (c : Cluster.t) ~attempt ~site = Lock_mgr.release_all c.locks.(site) ~owner:attempt

let abort_local (c : Cluster.t) ~attempt ~site =
  History.discard_attempt c.history ~attempt;
  release c ~attempt ~site

(* --- secondary subtransactions -------------------------------------------- *)

let rec acquire_secondary ?(on_retry = ignore) c ~gid ~site items =
  let attempt = Cluster.fresh_attempt c in
  match acquire_writes c ~gid ~attempt ~site items with
  | Ok () -> attempt
  | Error _ ->
      abort_local c ~attempt ~site;
      on_retry items;
      acquire_secondary ~on_retry c ~gid ~site items

let commit_secondary c ~gid ~site ~attempt items =
  apply_writes c ~gid ~site items;
  if Trace.on c.trace then Trace.record c.trace (Event.Secondary_commit { gid; site });
  release c ~attempt ~site

let apply_secondary ?on_retry c ~gid ~site items =
  if items <> [] then begin
    let attempt = acquire_secondary ?on_retry c ~gid ~site items in
    commit_cost c ~site;
    commit_secondary c ~gid ~site ~attempt items
  end

(* --- the primary transaction frame ----------------------------------------- *)

type frame = {
  c : Cluster.t;
  site : int;
  gid : int;
  attempt : int;
  writes : int list;
  deadline_at : float;
}

let begin_ (c : Cluster.t) (spec : Txn.spec) =
  let site = spec.origin in
  let deadline_at =
    if c.params.txn_deadline > 0.0 then Sim.now c.sim +. c.params.txn_deadline else infinity
  in
  let gid = Cluster.fresh_gid c in
  let attempt = Cluster.fresh_attempt c in
  Cluster.trace_txn_begin c ~gid ~attempt ~site;
  { c; site; gid; attempt; writes = List.sort_uniq compare (Txn.writes spec); deadline_at }

let prop_wait f wait =
  let t0 = Sim.now f.c.sim in
  let r = wait () in
  Span.add f.c.spans ~owner:f.attempt Span.Prop_wait (Sim.now f.c.sim -. t0);
  r

let abort_traced ~trace_first ?(cleanup = ignore) f reason =
  let { c; site; gid; attempt; _ } = f in
  if reason = Txn.Deadline_exceeded && Trace.on c.trace then
    Trace.record c.trace (Event.Txn_deadline { gid; site });
  if trace_first then Cluster.trace_txn_abort c ~gid ~attempt ~site reason;
  abort_local c ~attempt ~site;
  cleanup ();
  if not trace_first then Cluster.trace_txn_abort c ~gid ~attempt ~site reason;
  Txn.Aborted reason

let abort = abort_traced ~trace_first:false

let commit_certified ?on_apply (c : Cluster.t) ~gid ~attempt ~site vwrites =
  commit_cost c ~site;
  if vwrites <> [] then begin
    apply_versioned ?on_apply c ~gid ~site vwrites;
    Cluster.note_destined c ~items:(List.map fst vwrites)
  end;
  Cluster.trace_txn_commit c ~gid ~attempt ~site

let primary ?(replicated = true) ?(cleanup = ignore) ?prepare ?hold c spec ~run ~publish =
  let f = begin_ c spec in
  let { site; gid; attempt; writes; _ } = f in
  match run f with
  | Error reason -> abort f reason ~cleanup:(fun () -> cleanup f)
  | Ok r -> (
      match match prepare with None -> Ok () | Some p -> p f r with
      | Error reason -> abort_traced ~trace_first:true f reason ~cleanup:(fun () -> cleanup f)
      | Ok () ->
          commit_cost ~owner:attempt c ~site;
          (* Atomic commit section, unless [hold] blocks: apply, account,
             release, publish. *)
          apply_writes c ~gid ~site writes;
          if replicated then Cluster.note_destined c ~items:writes;
          (match hold with Some hold -> hold f | None -> ());
          Cluster.trace_txn_commit c ~gid ~attempt ~site;
          release c ~attempt ~site;
          publish f r;
          Txn.Committed)

let serve net site handle =
  let inbox = Repdb_net.Network.inbox net site in
  while true do
    let src, msg = Repdb_sim.Mailbox.recv inbox in
    handle ~src msg
  done

let spawn_servers (c : Cluster.t) procs =
  let cat = Cluster.profile_cat c "server" in
  for site = 0 to c.params.n_sites - 1 do
    List.iter (fun p -> Sim.spawn ~cat c.sim p) (procs site)
  done
