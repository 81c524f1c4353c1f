module Sim = Repdb_sim.Sim
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn
module Validator = Repdb_occ.Validator

let name = "occ-epoch"
let updates_replicas = true

let validator_site = 0

type pending = {
  gid : int;
  attempt : int;
  reads : (int * int) list;
  writes : int list;
  deliver : [ `Committed | `Validation_failed | `Deadline ] -> unit;
}

type msg =
  | Batch of { epoch : int; txns : pending list }
  | Verdicts of { epoch : int; results : (pending * (int * int) list option) list }

type update_msg = {
  u_gid : int;
  u_writes : (int * int) list; (* (item, version) in validation order *)
  u_origin_commit : float;
  u_epoch : int;
}

type t = {
  c : Cluster.t;
  net : msg Network.t;
  update_net : update_msg Network.t;
  validator : Validator.t;
  queues : pending list ref array; (* per site, reversed arrival order *)
}

(* Certified writes are applied at the origin primary by the server, not the
   waiting client: a client whose deadline fired mid-epoch has already been
   resumed (resumption is one-shot — its late verdict is ignored), but the
   batch was validated and the versions assigned, so the system must install
   the writes regardless. They are recorded under a fresh attempt id so a
   client-side discard never takes committed writes with it. *)
let apply_verdicts t ~site results =
  let c = t.c in
  List.iter
    (fun (p, verdict) ->
      match verdict with
      | None -> p.deliver `Validation_failed
      | Some vwrites ->
          Exec.commit_certified c ~gid:p.gid ~attempt:p.attempt ~site vwrites;
          (* Lazy propagation of the winner's writes; per-item streams are
             FIFO from the primary, so replicas apply in validation order. *)
          let u =
            {
              u_gid = p.gid;
              u_writes = vwrites;
              u_origin_commit = Sim.now c.sim;
              u_epoch = c.config_epoch;
            }
          in
          Propagate.fan_out c ~site (List.map fst vwrites) (fun dst ->
              Network.send t.update_net ~src:site ~dst u);
          p.deliver `Committed)
    results

(* Validate one site's epoch batch in arrival order. One message receipt plus
   one validation slot per transaction is charged to the validator site — the
   epoch batch amortizes the per-transaction round trip that makes [central]
   a bottleneck. *)
let serve_batch t ~src txns =
  let c = t.c in
  Cluster.use_cpu c validator_site
    (c.params.cpu_msg +. (float_of_int (List.length txns) *. c.params.cpu_op));
  let results =
    List.map
      (fun p ->
        (p, Validator.validate t.validator { gid = p.gid; reads = p.reads; writes = p.writes }))
      txns
  in
  if src = validator_site then apply_verdicts t ~site:src results
  else begin
    Cluster.use_cpu c validator_site c.params.cpu_msg;
    Network.send t.net ~src:validator_site ~dst:src
      (Verdicts { epoch = c.config_epoch; results })
  end

(* Per-site server: the validator site serves batches, every site applies its
   own verdicts. Processing blocks the loop on purpose — arrival order is
   validation order is apply order. *)
let server t site =
  let c = t.c in
  Exec.serve t.net site (fun ~src -> function
    | Batch { epoch; txns } ->
        assert (site = validator_site);
        assert (epoch = c.config_epoch);
        serve_batch t ~src txns
    | Verdicts { epoch; results } ->
        Cluster.dec_outstanding c;
        assert (epoch = c.config_epoch);
        apply_verdicts t ~site results)

let update_applier t site =
  let c = t.c in
  Exec.serve t.update_net site (fun ~src:_ u ->
      Propagate.receive c ~site ~epoch:u.u_epoch ~gid:u.u_gid ~origin_commit:u.u_origin_commit
        ~install:(fun local ->
          Exec.apply_versioned c ~gid:u.u_gid ~site
            (List.filter (fun (item, _) -> List.mem item local) u.u_writes))
        (List.map fst u.u_writes))

(* Flush a site's buffered transactions as one batch to the validator. Runs
   in its own process (CPU waits block); the validator site validates its own
   batch by direct call — there is no self-loop in the network. *)
let flush t site =
  let c = t.c in
  let batch = List.rev !(t.queues.(site)) in
  t.queues.(site) := [];
  if batch <> [] then
    if site = validator_site then serve_batch t ~src:site batch
    else begin
      Cluster.use_cpu c site c.params.cpu_msg;
      Cluster.inc_outstanding c;
      Network.send t.net ~src:site ~dst:validator_site
        (Batch { epoch = c.config_epoch; txns = batch })
    end

let describe_msg = function
  | Batch { txns; _ } -> ("occ-batch", 16 + (24 * List.length txns))
  | Verdicts { results; _ } -> ("occ-verdicts", 16 + (8 * List.length results))

let describe_update (u : update_msg) = ("occ-update", 16 + (8 * List.length u.u_writes))

let create (c : Cluster.t) =
  let t =
    {
      c;
      net = Cluster.make_net ~describe:describe_msg c;
      update_net = Cluster.make_net ~describe:describe_update c;
      validator = Validator.create ();
      queues = Array.init c.params.n_sites (fun _ -> ref []);
    }
  in
  Exec.spawn_servers c (fun site ->
      [ (fun () -> server t site); (fun () -> update_applier t site) ]);
  (* Epoch boundaries are global instants (k * occ_epoch_ms): every site
     flushes at the same boundary, in site order. The ticker keeps firing
     while a reconfiguration drains — queued transactions must still reach
     the validator for the drain to complete. *)
  let period = c.params.occ_epoch_ms in
  for site = 0 to c.params.n_sites - 1 do
    let rec tick at =
      Sim.at c.sim at (fun () ->
          if not c.stopped then begin
            if !(t.queues.(site)) <> [] then Sim.spawn c.sim (fun () -> flush t site);
            tick (at +. period)
          end)
    in
    tick period
  done;
  t

let submit t (spec : Txn.spec) =
  let c = t.c in
  let f = Exec.begin_ c spec in
  let site = f.site in
  (* Optimistic local execution: no locks. Reads capture the version
     observed (the validation evidence), writes are buffered. *)
  let reads = ref [] in
  List.iter
    (fun op ->
      Cluster.use_cpu c site c.params.cpu_op;
      match op with
      | Txn.Read item ->
          let v = Store.read c.stores.(site) item in
          reads := (item, v.Value.version) :: !reads;
          History.record c.history ~site ~item ~gid:f.gid ~attempt:f.attempt
            ~version:v.Value.version History.R
      | Txn.Write _ -> ())
    spec.ops;
  let reads = List.rev !reads in
  if Sim.now c.sim >= f.deadline_at then Exec.abort f Txn.Deadline_exceeded
  else if
    site <> validator_site && not (Network.reachable t.net ~src:site ~dst:validator_site)
  then
    (* Fail fast instead of parking a batch against a partition. *)
    Exec.abort f Txn.Partitioned
  else begin
    let gid = f.gid in
    let outcome =
      Exec.prop_wait f (fun () ->
          Sim.suspend (fun resume ->
              t.queues.(site) :=
                { gid; attempt = f.attempt; reads; writes = f.writes; deliver = resume }
                :: !(t.queues.(site));
              if f.deadline_at < infinity then
                Sim.at c.sim f.deadline_at (fun () ->
                    (* Still buffered: withdraw, the validator never saw it.
                       Once flushed the system decides — a late verdict is
                       ignored by the one-shot resume and winners apply
                       server-side. *)
                    t.queues.(site) := List.filter (fun p -> p.gid <> gid) !(t.queues.(site));
                    resume `Deadline)))
    in
    match outcome with
    | `Committed -> Txn.Committed
    | `Validation_failed -> Exec.abort f Txn.Validation_failed
    | `Deadline -> Exec.abort f Txn.Deadline_exceeded
  end

(* The cluster drains (no active transactions, nothing in flight) before a
   switch, so no batch is buffered or travelling; the validator's table keys
   by item and state transfer preserves versions, so it still matches every
   store. Nothing to rebuild — assert the invariant instead. *)
let reconfigure = Some (fun t -> Array.iter (fun q -> assert (!q = [])) t.queues)
