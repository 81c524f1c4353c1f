(* Unit tests for the core support modules: metrics, convergence, exec,
   routing, cluster accounting and the experiment plumbing. *)

module Sim = Repdb_sim.Sim
module Store = Repdb_store.Store
module Txn = Repdb_txn.Txn
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Tree = Repdb_graph.Tree
module Cluster = Repdb.Cluster
module Metrics = Repdb.Metrics
module Exec = Repdb.Exec
module Stats = Repdb_obs.Stats

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- metrics ------------------------------------------------------------- *)

(* A registry and a sample store fed the way the driver's clients feed
   them: counts in [Stats], exact responses and availability buckets in
   [Metrics]. *)
let recorder ~n_sites =
  let stats = Stats.create ~n_sites () and m = Metrics.create () in
  let commit ~site response =
    Stats.incr (Stats.counter stats "txn.commit") ~site;
    Stats.observe (Stats.histogram stats "response") ~site response;
    Metrics.commit m ~at:0.0 ~response
  and abort ~site reason =
    Stats.incr (Stats.counter stats "txn.abort") ~site;
    Stats.incr (Stats.counter stats (Metrics.abort_counter_name reason)) ~site;
    Metrics.abort m ~at:0.0
  and summarize ~finished =
    Metrics.client_done m ~time:finished;
    Metrics.summarize m stats
  in
  (stats, commit, abort, summarize)

let test_metrics_counts () =
  let stats, commit, abort, summarize = recorder ~n_sites:2 in
  commit ~site:0 10.0;
  commit ~site:0 20.0;
  abort ~site:0 Txn.Lock_timeout;
  abort ~site:0 Txn.Lock_timeout;
  abort ~site:0 Txn.Deadlock;
  Stats.observe (Stats.histogram stats "prop.delay") ~site:1 5.0;
  Stats.add (Stats.counter stats "msg.sent") ~site:0 7;
  let s = summarize ~finished:1000.0 in
  checki "commits" 2 s.commits;
  checki "aborts" 3 s.aborts;
  checkf "abort rate" 60.0 s.abort_rate;
  checkf "avg response" 15.0 s.avg_response;
  checkf "avg propagation" 5.0 s.avg_propagation;
  checkf "throughput" 2.0 s.throughput;
  checkf "per site" 1.0 s.throughput_per_site;
  checki "messages" 7 s.messages;
  Alcotest.(check (list (pair Alcotest.reject int)))
    "reason counts" []
    (List.map (fun (_, n) -> ((), n)) s.aborts_by_reason |> List.filter (fun _ -> false));
  checki "two reasons" 2 (List.length s.aborts_by_reason);
  checkb "lock-timeout counted twice" true (List.mem (Txn.Lock_timeout, 2) s.aborts_by_reason);
  checkb "reasons in constructor order" true
    (List.map fst s.aborts_by_reason = [ Txn.Lock_timeout; Txn.Deadlock ])

let test_metrics_percentiles () =
  let _, commit, _, summarize = recorder ~n_sites:1 in
  for i = 1 to 100 do
    commit ~site:0 (float_of_int i)
  done;
  let s = summarize ~finished:100.0 in
  (* Nearest-rank: of 1..100, pXX is exactly XX. *)
  checkf "p50" 50.0 s.p50_response;
  checkf "p95" 95.0 s.p95_response;
  checkf "p99" 99.0 s.p99_response

let test_metrics_percentile_nearest_rank () =
  (* The regression the truncating index had: p50 of an even-sized sample
     must be the lower middle element, not the upper. *)
  checkf "p50 of [1;2;3;4]" 2.0 (Metrics.percentile [| 1.0; 2.0; 3.0; 4.0 |] 0.5);
  checkf "p25 of [1;2;3;4]" 1.0 (Metrics.percentile [| 1.0; 2.0; 3.0; 4.0 |] 0.25);
  checkf "p100" 4.0 (Metrics.percentile [| 1.0; 2.0; 3.0; 4.0 |] 1.0);
  checkf "p0 clamps to first" 1.0 (Metrics.percentile [| 1.0; 2.0; 3.0; 4.0 |] 0.0);
  checkf "empty" 0.0 (Metrics.percentile [||] 0.5)

let test_metrics_stats_percentiles_agree () =
  (* The two percentile implementations must give the same answer when the
     histogram buckets resolve every sample exactly. *)
  let samples = Array.init 40 (fun i -> float_of_int (1 + (i mod 10))) in
  let stats = Stats.create ~n_sites:1 () in
  let buckets = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let h = Stats.histogram ~buckets stats "x" in
  Array.iter (fun v -> Stats.observe h ~site:0 v) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      checkf
        (Printf.sprintf "q=%g agrees" q)
        (Metrics.percentile sorted q)
        (Stats.percentile h ~site:0 q))
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ]

let test_metrics_empty () =
  let _, _, _, summarize = recorder ~n_sites:3 in
  let s = summarize ~finished:0.0 in
  checkf "no throughput" 0.0 s.throughput;
  checkf "no response" 0.0 s.avg_response;
  checkf "no abort rate" 0.0 s.abort_rate;
  (* Zero commits must not produce NaN anywhere in the summary. *)
  checkb "p50 finite" false (Float.is_nan s.p50_response);
  checkb "p95 finite" false (Float.is_nan s.p95_response);
  checkb "p99 finite" false (Float.is_nan s.p99_response);
  checkb "avg prop finite" false (Float.is_nan s.avg_propagation)

let test_metrics_single_sample () =
  let _, commit, _, summarize = recorder ~n_sites:1 in
  commit ~site:0 42.0;
  let s = summarize ~finished:100.0 in
  checkf "p50 of one" 42.0 s.p50_response;
  checkf "p95 of one" 42.0 s.p95_response;
  checkf "p99 of one" 42.0 s.p99_response;
  checkf "avg of one" 42.0 s.avg_response

let test_metrics_aborts_only () =
  let _, _, abort, summarize = recorder ~n_sites:1 in
  abort ~site:0 Txn.Deadlock;
  abort ~site:0 Txn.Lock_timeout;
  let s = summarize ~finished:50.0 in
  checki "no commits" 0 s.commits;
  checki "two aborts" 2 s.aborts;
  checkf "abort rate is total" 100.0 s.abort_rate;
  checkb "avg response finite" false (Float.is_nan s.avg_response);
  checkb "p99 finite" false (Float.is_nan s.p99_response)

let test_metrics_per_site () =
  let _, commit, abort, summarize = recorder ~n_sites:3 in
  commit ~site:0 10.0;
  commit ~site:2 30.0;
  abort ~site:2 Txn.Deadlock;
  let s = summarize ~finished:100.0 in
  checki "three rows" 3 (List.length s.per_site);
  let row site = List.nth s.per_site site in
  checki "site 0 commits" 1 (row 0).Metrics.s_commits;
  checki "site 1 commits" 0 (row 1).Metrics.s_commits;
  checki "site 2 commits" 1 (row 2).Metrics.s_commits;
  checki "site 2 aborts" 1 (row 2).Metrics.s_aborts;
  checkf "site 0 avg" 10.0 (row 0).Metrics.s_avg_response;
  checkf "site 1 avg" 0.0 (row 1).Metrics.s_avg_response

(* --- convergence --------------------------------------------------------- *)

let placement =
  Placement.make ~n_sites:2 ~n_items:2 ~primary:[| 0; 1 |] ~replicas:[| [ 1 ]; [] |]

let small_params = { Params.default with n_sites = 2; n_items = 2 }

let test_convergence_detects_divergence () =
  let c = Cluster.create_with small_params placement in
  checki "initially converged" 0 (List.length (Repdb.Convergence.check c));
  (* Write the primary copy only. *)
  Store.apply c.stores.(0) 0 ~writer:9 ();
  (match Repdb.Convergence.check c with
  | [ d ] ->
      checki "item" 0 d.Repdb.Convergence.item;
      checki "site" 1 d.Repdb.Convergence.site
  | l -> Alcotest.failf "expected one divergence, got %d" (List.length l));
  (* Apply the same write at the replica: converged again. *)
  Store.apply c.stores.(1) 0 ~writer:9 ();
  checki "converged after apply" 0 (List.length (Repdb.Convergence.check c))

(* --- exec ----------------------------------------------------------------- *)

let test_exec_deferred_writes () =
  let c = Cluster.create_with small_params placement in
  Sim.spawn c.sim (fun () ->
      let gid = Cluster.fresh_gid c and attempt = Cluster.fresh_attempt c in
      (match Exec.run_ops c ~gid ~attempt ~site:0 [ Txn.Write 0 ] with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "uncontended acquire failed");
      (* Deferred: nothing in the store until commit. *)
      checki "not yet applied" 0 (Store.read c.stores.(0) 0).Repdb_store.Value.version;
      Exec.apply_writes c ~gid ~site:0 [ 0 ];
      Exec.release c ~attempt ~site:0;
      checki "applied at commit" 1 (Store.read c.stores.(0) 0).Repdb_store.Value.version);
  Sim.run c.sim;
  checki "locks drained" 0 (Repdb_lock.Lock_mgr.locks_held c.locks.(0))

let test_exec_abort_discards () =
  let c = Cluster.create_with { small_params with Params.record_history = true } placement in
  Sim.spawn c.sim (fun () ->
      let gid = Cluster.fresh_gid c and attempt = Cluster.fresh_attempt c in
      (match Exec.run_ops c ~gid ~attempt ~site:0 [ Txn.Read 0; Txn.Write 0 ] with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "acquire failed");
      Exec.abort_local c ~attempt ~site:0);
  Sim.run c.sim;
  checki "no committed accesses" 0 (List.length (Repdb_txn.History.committed_gids c.history));
  checki "locks drained" 0 (Repdb_lock.Lock_mgr.locks_held c.locks.(0))

let test_exec_apply_secondary_retries () =
  (* A conflicting holder times out; the secondary must retry and win. *)
  let c = Cluster.create_with small_params placement in
  let done_at = ref 0.0 in
  Sim.spawn c.sim (fun () ->
      (* Foreign lock held for 120 ms, then released. *)
      let attempt = Cluster.fresh_attempt c in
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:attempt 0 Repdb_lock.Lock_mgr.Exclusive);
      Sim.delay 120.0;
      Repdb_lock.Lock_mgr.release_all c.locks.(1) ~owner:attempt);
  Sim.spawn c.sim (fun () ->
      Exec.apply_secondary c ~gid:77 ~site:1 [ 0 ];
      done_at := Sim.now c.sim);
  Sim.run c.sim;
  checkb "eventually applied" true (!done_at >= 120.0);
  checki "write applied" 1 (Store.read c.stores.(1) 0).Repdb_store.Value.version

(* --- routing -------------------------------------------------------------- *)

let test_routing_subtree_maps () =
  (* Chain 0 -> 1 -> 2; item 0 replicated at 2 only. *)
  let placement =
    Placement.make ~n_sites:3 ~n_items:1 ~primary:[| 0 |] ~replicas:[| [ 2 ] |]
  in
  let tr = Tree.chain_of_order [| 0; 1; 2 |] in
  let maps = Repdb.Routing.subtree_replicas placement tr in
  checkb "root subtree sees it" true (Repdb.Routing.in_subtree maps ~site:0 0);
  checkb "middle subtree sees it" true (Repdb.Routing.in_subtree maps ~site:1 0);
  checkb "leaf holds it" true (Repdb.Routing.in_subtree maps ~site:2 0);
  Alcotest.(check (list int)) "middle is relevant from root" [ 1 ]
    (Repdb.Routing.relevant_children maps tr 0 [ 0 ]);
  Alcotest.(check (list int)) "local replicas at 1" []
    (Repdb.Routing.local_replicas placement 1 [ 0 ]);
  Alcotest.(check (list int)) "local replicas at 2" [ 0 ]
    (Repdb.Routing.local_replicas placement 2 [ 0 ])

(* --- cluster accounting ---------------------------------------------------- *)

let test_cluster_quiescence_accounting () =
  let c = Cluster.create_with small_params placement in
  checkb "quiescent at start" true (Cluster.quiescent c);
  Cluster.client_started c;
  checkb "busy with client" false (Cluster.quiescent c);
  Cluster.inc_outstanding c;
  Cluster.client_finished c;
  checkb "still outstanding" false (Cluster.quiescent c);
  Cluster.dec_outstanding c;
  checkb "quiescent again" true (Cluster.quiescent c);
  checki "gids monotone" 1 (Cluster.fresh_gid c);
  checki "gids monotone 2" 2 (Cluster.fresh_gid c);
  checki "attempts separate" 1 (Cluster.fresh_attempt c)

let test_cluster_deadlock_policy_param () =
  let params = { small_params with Params.deadlock_policy = `Detect } in
  let c = Cluster.create_with params placement in
  (* Two locally deadlocked owners resolve by detection (no 50 ms wait).
     Site 1 holds both items (replica of 0, primary of 1), so both are valid
     lock targets under the dense placed-item lock tables. *)
  let resolved_at = ref infinity in
  Sim.spawn c.sim (fun () ->
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:1 0 Repdb_lock.Lock_mgr.Exclusive);
      Sim.delay 2.0;
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:1 1 Repdb_lock.Lock_mgr.Exclusive);
      resolved_at := Sim.now c.sim);
  Sim.spawn c.sim (fun () ->
      Sim.delay 1.0;
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:2 1 Repdb_lock.Lock_mgr.Exclusive);
      ignore (Repdb_lock.Lock_mgr.acquire c.locks.(1) ~owner:2 0 Repdb_lock.Lock_mgr.Exclusive));
  Sim.run c.sim;
  checkb "detection beats the 50ms timeout" true (!resolved_at < 50.0)

let test_cluster_straggler () =
  (* The same burst takes straggler_factor times longer on the slow machine. *)
  let params =
    { small_params with Params.n_machines = 2; straggler_machine = 0; straggler_factor = 4.0 }
  in
  let c = Cluster.create_with params placement in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  Sim.spawn c.sim (fun () ->
      Cluster.use_cpu c 0 10.0;
      t0 := Sim.now c.sim);
  Sim.spawn c.sim (fun () ->
      Cluster.use_cpu c 1 10.0;
      t1 := Sim.now c.sim);
  Sim.run c.sim;
  checkf "slow machine" 40.0 !t0;
  checkf "normal machine" 10.0 !t1

(* Each optional feature keeps its state in one sub-record, [Some] exactly
   when the feature is on (healing also switches epochs on: a failover is an
   epoch switch), and a feature that is off registers none of its Stats
   names. Each input is a full driver run, so names registered mid-run (a
   crash, a dropped message, a failover) count too. *)
let test_cluster_feature_records () =
  let base =
    { Params.default with n_sites = 4; n_items = 40; threads_per_site = 1; txns_per_thread = 10 }
  in
  let ok = function Ok v -> v | Error m -> failwith m in
  (* name, switched on, Stats name prefixes it owns *)
  let features =
    [
      ( "faults",
        (fun p -> { p with Params.faults = ok (Repdb_fault.Fault.of_string "crash@20:site=1,down=30") }),
        [ "fault."; "msg.drop" ] );
      ("stale reads", (fun p -> { p with Params.stale_reads = 100.0 }), [ "read." ]);
      ( "epochs",
        (fun p -> { p with Params.reconfig = ok (Repdb_reconfig.Reconfig.of_string "add@30:item=2,site=3") }),
        [ "reconfig." ] );
      ("telemetry", (fun p -> { p with Params.timeline_every = 10.0 }), []);
      ( "healing",
        (fun p -> { p with Params.heal = true; txn_deadline = 400.0 }),
        [ "heal."; "corrupt."; "detector."; "repair." ] );
    ]
  in
  let present (c : Cluster.t) =
    [
      ("faults", Option.is_some c.faults);
      ("stale reads", Option.is_some c.stale);
      ("epochs", Option.is_some c.epochs);
      ("telemetry", Option.is_some c.telemetry);
      ("healing", Option.is_some c.healing);
    ]
  in
  let check_run label ~on params =
    let c = Cluster.create params in
    ignore (Repdb.Driver.run_on c (module Repdb.Backedge_proto : Repdb.Protocol.S));
    let names = Stats.counter_names c.stats @ Stats.histogram_names c.stats in
    List.iter
      (fun (feature, is_present) ->
        checkb (Printf.sprintf "%s: %s present" label feature) (List.mem feature on) is_present)
      (present c);
    List.iter
      (fun (feature, _, prefixes) ->
        let owned =
          List.filter (fun n -> List.exists (fun prefix -> String.starts_with ~prefix n) prefixes) names
        in
        if not (List.mem feature on) then
          Alcotest.(check (list string)) (Printf.sprintf "%s: no %s names" label feature) [] owned
        else if prefixes <> [] then
          checkb (Printf.sprintf "%s: %s names registered" label feature) true (owned <> []))
      features
  in
  check_run "all off" ~on:[] base;
  List.iter
    (fun (feature, switch_on, _) ->
      let on = if feature = "healing" then [ feature; "epochs" ] else [ feature ] in
      check_run feature ~on (switch_on base))
    features

(* --- experiment plumbing ---------------------------------------------------- *)

let tiny = { Params.default with n_sites = 3; n_items = 12; threads_per_site = 1; txns_per_thread = 5 }

let test_experiment_figure_structure () =
  let fig = Repdb.Experiment.figure ~base:tiny ~steps:2 "fig2a" in
  checki "three points" 3 (List.length fig.points);
  List.iter
    (fun (pt : Repdb.Experiment.point) ->
      checki "two protocols per point" 2 (List.length pt.reports))
    fig.points;
  let csv = Repdb.Experiment.to_csv fig in
  checki "csv lines" (1 + (3 * 2)) (List.length (String.split_on_char '\n' (String.trim csv)))

let test_experiment_tree_routing_runs () =
  let fig = Repdb.Experiment.figure ~base:tiny ~steps:1 "tree-routing" in
  checki "two points" 2 (List.length fig.points)

let () =
  Alcotest.run "core"
    [
      ( "metrics",
        [
          Alcotest.test_case "counts" `Quick test_metrics_counts;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "percentile nearest rank" `Quick test_metrics_percentile_nearest_rank;
          Alcotest.test_case "percentile agrees with stats" `Quick
            test_metrics_stats_percentiles_agree;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
          Alcotest.test_case "single sample" `Quick test_metrics_single_sample;
          Alcotest.test_case "aborts only" `Quick test_metrics_aborts_only;
          Alcotest.test_case "per site" `Quick test_metrics_per_site;
        ] );
      ( "convergence",
        [ Alcotest.test_case "detects divergence" `Quick test_convergence_detects_divergence ] );
      ( "exec",
        [
          Alcotest.test_case "deferred writes" `Quick test_exec_deferred_writes;
          Alcotest.test_case "abort discards" `Quick test_exec_abort_discards;
          Alcotest.test_case "secondary retries" `Quick test_exec_apply_secondary_retries;
        ] );
      ( "routing", [ Alcotest.test_case "subtree maps" `Quick test_routing_subtree_maps ] );
      ( "cluster",
        [
          Alcotest.test_case "quiescence accounting" `Quick test_cluster_quiescence_accounting;
          Alcotest.test_case "deadlock policy param" `Quick test_cluster_deadlock_policy_param;
          Alcotest.test_case "straggler machine" `Quick test_cluster_straggler;
          Alcotest.test_case "feature sub-records" `Quick test_cluster_feature_records;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "figure structure" `Quick test_experiment_figure_structure;
          Alcotest.test_case "tree-routing ablation" `Quick test_experiment_tree_routing_runs;
        ] );
    ]
