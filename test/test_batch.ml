(* Batched propagation: cross-setting invariants on the real protocols,
   determinism of batched runs (repeats and -j), and a QCheck model of the
   Batcher's ordering guarantees.

   Batching with size > 1 is a semantic knob, not a transparent optimisation:
   flush events consume heap sequence numbers and physical sends draw from
   the fault injector's RNG, so batched runs legitimately diverge byte-wise
   from unbatched ones. What must hold instead — and what these tests pin
   down — is that every lazy protocol still commits the same transactions,
   converges to the same replica state, reports the same logical message
   count (arity-weighted accounting), and that any fixed batch setting is
   fully deterministic. *)

module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Driver = Repdb.Driver
module Cluster = Repdb.Cluster
module Experiment = Repdb.Experiment
module Protocol = Repdb.Protocol
module Pool = Repdb_par.Pool
module Sim = Repdb_sim.Sim
module Batcher = Repdb_net.Batcher
module Store = Repdb_store.Store
module Value = Repdb_store.Value

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* b = 0: the WT/T protocols require an acyclic copy graph. *)
let base = { Params.default with txns_per_thread = 10; backedge_prob = 0.0 }

let with_batch size linger = { base with Params.batch_size = size; batch_linger_ms = linger }

(* All four lazy propagation paths that route through the batcher. *)
let lazy_protocols : (string * Protocol.t) list =
  [
    ("dag-wt", (module Repdb.Dag_wt : Protocol.S));
    ("backedge", (module Repdb.Backedge_proto : Protocol.S));
    ("dag-t", (module Repdb.Dag_t : Protocol.S));
    ("lazy-master", (module Repdb.Lazy_master : Protocol.S));
  ]

let settings = [ (1, 0.0); (8, 0.0); (8, 2.0); (64, 5.0) ]

(* --- invariants across batch settings -------------------------------------- *)

let test_invariants () =
  List.iter
    (fun (name, proto) ->
      let reports =
        List.map (fun (size, linger) -> Driver.run (with_batch size linger) proto) settings
      in
      let baseline = List.hd reports in
      List.iteri
        (fun i (r : Driver.report) ->
          let size, linger = List.nth settings i in
          let label fmt = Printf.sprintf "%s @ batch=%d/%gms %s" name size linger fmt in
          (* Replicas converge to their primaries under every setting. *)
          (match r.divergent with
          | Some [] -> ()
          | Some ds ->
              Alcotest.failf "%s: %d divergent replicas" (label "convergence") (List.length ds)
          | None -> ());
          (* lazy-master holds locks while pushes park, so lingering batches
             legitimately change the abort (and hence commit/message) mix;
             the WT/T protocols never abort here and must be unaffected. *)
          if name <> "lazy-master" then begin
            checki (label "commits") baseline.summary.commits r.summary.commits;
            checki (label "aborts") baseline.summary.aborts r.summary.aborts;
            (* Arity-weighted accounting makes the count batch-size-invariant;
               dag-t's periodic dummies additionally scale with simulated
               duration, which a linger legitimately extends. *)
            if name <> "dag-t" || linger = 0.0 then
              checki (label "logical messages") baseline.summary.messages r.summary.messages
          end)
        reports)
    lazy_protocols

(* Committed replica state is byte-for-byte the same whatever the batch
   setting: same versions at every (site, item) the placement replicates. *)
let test_final_values_identical () =
  let placement = Placement.generate (Repdb_sim.Rng.create base.Params.seed) base in
  let dump (c : Cluster.t) =
    let b = Buffer.create 256 in
    Array.iteri
      (fun item primary ->
        let version site = (Store.read c.stores.(site) item).Value.version in
        Buffer.add_string b (Printf.sprintf "%d@%d=%d;" item primary (version primary));
        Array.iter
          (fun site -> Buffer.add_string b (Printf.sprintf "%d@%d=%d;" item site (version site)))
          c.placement.Placement.replicas.(item))
      c.placement.Placement.primary;
    Buffer.contents b
  in
  List.iter
    (fun (name, proto) ->
      let run (size, linger) =
        let c = Cluster.create_with (with_batch size linger) placement in
        ignore (Driver.run_on c proto);
        dump c
      in
      let baseline = run (List.hd settings) in
      List.iter
        (fun (size, linger) ->
          checks (Printf.sprintf "%s values @ batch=%d/%gms" name size linger) baseline
            (run (size, linger)))
        settings)
    [ List.hd lazy_protocols; List.nth lazy_protocols 1 ]

(* --- determinism of batched runs -------------------------------------------- *)

(* A fixed nontrivial batch setting is as deterministic as the default: the
   full-precision experiment CSV is identical across repeats and across
   -j 1 / -j 2. *)
let test_batched_determinism () =
  let batched = { (with_batch 8 2.0) with Params.txns_per_thread = 5 } in
  let csv () = Experiment.to_csv (Experiment.figure ~base:batched ~steps:2 "fig2a") in
  let seq = csv () in
  checks "repeat run identical" seq (csv ());
  let par =
    Pool.with_pool ~domains:2 (fun pool ->
        Experiment.to_csv (Experiment.figure ~pool ~base:batched ~steps:2 "fig2a"))
  in
  checks "-j 2 identical" seq par

(* Same determinism for the telemetry timeline: a batched run samples the
   identical timeline CSV on every repeat (in-flight sampling includes the
   batcher's parked updates, so this also pins that accounting). *)
let test_batched_timeline_deterministic () =
  let params = { (with_batch 8 2.0) with Params.timeline_every = 50.0 } in
  let csv () =
    match (Driver.run params (module Repdb.Backedge_proto : Protocol.S)).timeline with
    | Some tl -> Repdb_obs.Timeline.to_csv_string tl
    | None -> Alcotest.fail "expected a timeline"
  in
  let first = csv () in
  Alcotest.(check bool) "timeline non-trivial" true (String.length first > 100);
  checks "timeline CSV identical across repeats" first (csv ())

(* batch_size = 1 (the default) short-circuits the batcher entirely, so
   spelling it out changes nothing observable. *)
let test_batch1_is_default () =
  let csv params = Experiment.to_csv (Experiment.figure ~base:params ~steps:2 "fig2a") in
  let small = { base with Params.txns_per_thread = 5 } in
  checks "explicit batch=1/0 == default" (csv small)
    (csv { small with Params.batch_size = 1; batch_linger_ms = 0.0 })

(* --- QCheck model of the Batcher --------------------------------------------- *)

type op =
  | Push of int * int * int
  | Push_now of int * int * int
  | Flush of int * int
  | Flush_all
  | Advance  (* drain the event heap: linger timers fire *)

let pairs = [ (0, 1); (0, 2); (1, 0); (1, 2); (2, 0); (2, 1) ]

let gen_scenario =
  QCheck2.Gen.(
    let gen_pair = oneofl pairs in
    let gen_op =
      frequency
        [
          (6, map2 (fun (s, d) v -> Push (s, d, v)) gen_pair (int_bound 99));
          (2, map2 (fun (s, d) v -> Push_now (s, d, v)) gen_pair (int_bound 99));
          (1, map (fun (s, d) -> Flush (s, d)) gen_pair);
          (1, return Flush_all);
          (1, return Advance);
        ]
    in
    triple (int_range 1 5) (oneofl [ 0.0; 2.0 ]) (list_size (int_range 0 80) gen_op))

let pp_scenario fmt (size, linger, ops) =
  Format.fprintf fmt "size=%d linger=%g ops=%d" size linger (List.length ops)

(* Replay a scenario against the real Batcher and a trivial model (per-pair
   FIFO list of pushed values). After a final flush_all:
   - per-pair concatenation of shipped batches equals the model's push order
     (FIFO; push_now never overtakes parked updates);
   - no shipped batch is empty or larger than [size];
   - every queue is empty — the epoch-fence precondition: once all parked
     work has flushed, a batch can never straddle the fence. *)
let prop_batcher_model =
  QCheck2.Test.make ~name:"Batcher preserves per-pair FIFO" ~count:500
    ~print:(Format.asprintf "%a" pp_scenario) gen_scenario (fun (size, linger, ops) ->
      let sim = Sim.create () in
      let shipped = Array.make_matrix 3 3 [] in
      let oversized = ref false in
      let bat =
        Batcher.create ~sim ~n_sites:3 ~size ~linger_ms:linger
          ~ship:(fun ~src ~dst batch ->
            if batch = [] || List.length batch > size then oversized := true;
            shipped.(src).(dst) <- shipped.(src).(dst) @ [ batch ])
          ()
      in
      let model = Array.make_matrix 3 3 [] in
      List.iter
        (fun op ->
          match op with
          | Push (s, d, v) ->
              model.(s).(d) <- model.(s).(d) @ [ v ];
              Batcher.push bat ~src:s ~dst:d v
          | Push_now (s, d, v) ->
              model.(s).(d) <- model.(s).(d) @ [ v ];
              Batcher.push_now bat ~src:s ~dst:d v
          | Flush (s, d) -> Batcher.flush bat ~src:s ~dst:d
          | Flush_all -> Batcher.flush_all bat
          | Advance -> Sim.run sim)
        ops;
      Batcher.flush_all bat;
      Sim.run sim;
      let ok = ref (not !oversized) in
      List.iter
        (fun (s, d) ->
          if Batcher.pending bat ~src:s ~dst:d <> 0 then ok := false;
          if List.concat shipped.(s).(d) <> model.(s).(d) then ok := false)
        pairs;
      !ok)

let () =
  Alcotest.run "batch"
    [
      ( "protocols",
        [
          Alcotest.test_case "invariants across batch settings" `Quick test_invariants;
          Alcotest.test_case "final values identical" `Quick test_final_values_identical;
          Alcotest.test_case "batched runs deterministic" `Quick test_batched_determinism;
          Alcotest.test_case "batched timeline deterministic" `Quick
            test_batched_timeline_deterministic;
          Alcotest.test_case "batch=1 is the default path" `Quick test_batch1_is_default;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_batcher_model ]);
    ]
