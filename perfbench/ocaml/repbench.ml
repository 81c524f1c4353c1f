(* repbench — the OCaml half of the repository benchmark (see ../README.md).

     repbench MODE --workload NAME --seed N

   Every mode derives the workload's [Params.t] from the seed, drives the
   public Repdb API on one domain and prints one JSON object on stdout.
   ../run.py starts one process per measurement and aggregates. Modes:

   - [gate]: untimed run with the access history and the event trace on.
     Reports the 1SR verdict, replica convergence, quiescence, the simulated
     fingerprint every other run must reproduce, and the update-visibility
     latencies.
   - [timed]: set-up ([Placement.generate] + [Cluster.create_with]) and one
     [Driver.run_on], each timed, plus the run's exact work counts.
   - [traced]: the same run with trace, profiler and timeline on. Records the
     benchmark's own spans around each public call, and counts store writes
     and trace events.
   - [rungs]: unit costs of single layers (kernel, network, lock manager,
     store, transaction generator) at the workload's shape.

   Nothing here reaches inside [lib/]: every number is either the wall time
   of a call this file makes, or a count read from the run's report and
   [Cluster.t]. *)

module Sim = Repdb_sim.Sim
module Rng = Repdb_sim.Rng
module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Generator = Repdb_workload.Generator
module Cluster = Repdb.Cluster
module Driver = Repdb.Driver
module Registry = Repdb.Registry
module Convergence = Repdb.Convergence
module Serializability = Repdb_txn.Serializability
module History = Repdb_txn.History
module Txn = Repdb_txn.Txn
module Stats = Repdb_obs.Stats
module Trace = Repdb_obs.Trace
module Event = Repdb_obs.Event
module Profile = Repdb_obs.Profile
module Store = Repdb_store.Store
module Lock_mgr = Repdb_lock.Lock_mgr
module Network = Repdb_net.Network

(* {1 JSON output} *)

type json =
  | I of int
  | F of float
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let rec write_json b = function
  | I n -> Buffer.add_string b (string_of_int n)
  | F x ->
      (* %.17g round-trips a double, so run.py compares fingerprints exactly. *)
      if Float.is_finite x then Buffer.add_string b (Printf.sprintf "%.17g" x)
      else Buffer.add_string b "null"
  | S s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | B v -> Buffer.add_string b (string_of_bool v)
  | L xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write_json b x)
        xs;
      Buffer.add_char b ']'
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write_json b (S k);
          Buffer.add_char b ':';
          write_json b v)
        kvs;
      Buffer.add_char b '}'

let emit fields =
  let b = Buffer.create 4096 in
  write_json b (O fields);
  print_endline (Buffer.contents b)

(* {1 Workloads} *)

let workload_names = [ "paper-backedge-checked"; "paper-psl"; "large-dagwt" ]

(* Table 1 defaults with the paper's 1000 transactions per thread: 9 sites x
   3 closed-loop clients, no retry, so 27,000 attempted transactions. *)
let paper ~seed = { Params.default with txns_per_thread = 1000; seed }

(* The [bench/large.exe] point at 30 transactions per client: 200 sites x
   100k items, about 3 replicas per replicated item, 25 machines. *)
let large ~seed =
  {
    (paper ~seed) with
    n_sites = 200;
    n_items = 100_000;
    replication_prob = 0.5;
    site_prob = 6.0 /. 200.0;
    backedge_prob = 0.0;
    threads_per_site = 1;
    txns_per_thread = 30;
    n_machines = 25;
  }

let workload name ~seed =
  let protocol, params =
    match name with
    | "paper-backedge-checked" -> ("backedge", { (paper ~seed) with record_history = true })
    | "paper-psl" -> ("psl", paper ~seed)
    | "large-dagwt" -> ("dag-wt", large ~seed)
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  (Option.get (Registry.find protocol), params)

(* {1 Shared measurement helpers} *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Each workload keeps one data placement, drawn from this seed, and takes
   its transaction streams from the benchmark's seed. At the paper's 9 sites
   the placement alone moves throughput by 2x from seed to seed (5 to 19
   backedges), which would swamp the effect of any code change. At seed 42
   the runs are exactly [Driver.run]'s. *)
let placement_seed = 42

let placement (p : Params.t) = Placement.generate (Rng.create placement_seed) p

(* Set-up as [Cluster.create] does it, with the two halves timed. *)
let setup ?trace ?trace_capacity (p : Params.t) =
  let placement, placement_s = time (fun () -> placement p) in
  let c, create_s =
    time (fun () -> Cluster.create_with ?trace ?trace_capacity p placement)
  in
  (c, placement_s, create_s)

(* Large enough that no workload's trace wraps: a dropped event would make
   the visibility latencies and per-kind counts partial, so it fails the run. *)
let trace_capacity = 1 lsl 22

let attempted (r : Driver.report) = r.summary.commits + r.summary.aborts

(* The simulated outcome every run of one workload and seed must reproduce. *)
let fingerprint (r : Driver.report) =
  let s = r.summary in
  O
    [
      ("commits", I s.commits);
      ("aborts", I s.aborts);
      ( "aborts_by_reason",
        O (List.map (fun (reason, n) -> (Txn.string_of_abort reason, I n)) s.aborts_by_reason) );
      ("messages", I s.messages);
      ("propagations", I s.n_propagations);
      ("resp_p50_ms", F s.p50_response);
      ("resp_p99_ms", F s.p99_response);
      ("thr_per_site", F s.throughput_per_site);
    ]

(* Exact work counts of one run: they depend on the seed only. *)
let counts (r : Driver.report) (c : Cluster.t) =
  O
    [
      ("attempted", I (attempted r));
      ("sim_events", I r.sim_events);
      ("messages", I r.summary.messages);
      ("propagations", I r.summary.n_propagations);
      ("lock_acquires", I r.lock_stats.acquires);
      ("lock_waits", I r.lock_stats.waits);
      ("lock_timeouts", I r.lock_stats.timeouts);
      ("lock_deadlock_aborts", I r.lock_stats.deadlock_aborts);
      ("copy_graph_edges", I r.copy_graph_edges);
      ("backedges", I r.n_backedges);
      ("replicas", I r.n_replicas);
      ("history_accesses", I (History.size c.history));
    ]

(* Nearest-rank percentile of an ascending array (rank ceil(q n)). *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* {1 gate} *)

let gate name ~seed =
  let proto, p = workload name ~seed in
  let module P = (val proto : Repdb.Protocol.S) in
  let p = { p with record_history = true } in
  let c, _, _ = setup ~trace:true ~trace_capacity p in
  (* Last install of each transaction's writes at any copy, primary included. *)
  let installed = Hashtbl.create 65536 in
  Array.iter
    (fun st ->
      Store.set_write_hook st (function
        | Store.Applied { writer; _ } -> Hashtbl.replace installed writer (Sim.now c.sim)
        | Store.Installed _ -> ()))
    c.stores;
  let r = Driver.run_on c proto in
  let checked, check_s = time (fun () -> Serializability.check c.history) in
  let begun = Hashtbl.create 65536 and committed = Hashtbl.create 65536 in
  Trace.iter c.trace (fun (e : Event.t) ->
      match e.kind with
      | Event.Txn_begin { gid; _ } ->
          if not (Hashtbl.mem begun gid) then Hashtbl.add begun gid e.time
      | Event.Txn_commit { gid; _ } -> Hashtbl.replace committed gid ()
      | _ -> ());
  (* Update visibility: from the submit of a committed update transaction
     until its last write is installed at every copy. For PSL, whose
     replicas are virtual, that is the commit at the primaries. *)
  let vis = ref [] and orphans = ref 0 in
  Hashtbl.iter
    (fun gid last ->
      match Hashtbl.find_opt begun gid with
      | Some t0 when Hashtbl.mem committed gid -> vis := (last -. t0) :: !vis
      | _ -> incr orphans)
    installed;
  let vis = Array.of_list !vis in
  Array.sort compare vis;
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a)) in
  emit
    [
      ("mode", S "gate");
      ("serializable", B (r.serializability = Some Serializability.Serializable));
      ("serializable_recheck", B (checked = Serializability.Serializable));
      ( "converged",
        B (match r.divergent with None -> not P.updates_replicas | Some d -> d = []) );
      ("quiesced", B (Cluster.quiescent c && c.stopped));
      ("trace_dropped", I (Trace.dropped c.trace));
      ("vis_orphans", I !orphans);
      ("updates_replicas", B P.updates_replicas);
      ("fingerprint", fingerprint r);
      ("counts", counts r c);
      ("check_s", F check_s);
      ("vis_n", I (Array.length vis));
      ("vis_mean_ms", F (mean vis));
      ("vis_p50_ms", F (nearest_rank vis 0.5));
      ("vis_p99_ms", F (nearest_rank vis 0.99));
    ]

(* {1 timed} *)

let timed name ~seed =
  let proto, p = workload name ~seed in
  let c, placement_s, create_s = setup p in
  let w0 = Gc.minor_words () in
  let r, run_s = time (fun () -> Driver.run_on c proto) in
  let minor_words = Gc.minor_words () -. w0 in
  emit
    [
      ("mode", S "timed");
      ("placement_s", F placement_s);
      ("create_s", F create_s);
      ("run_s", F run_s);
      ("minor_words", F minor_words);
      ("fingerprint", fingerprint r);
      ("counts", counts r c);
    ]

(* {1 traced} *)

(* The benchmark's own spans: one per public call it makes, kept in memory
   and printed with the result. *)
type span = { s_name : string; s_start : float; s_end : float; s_parent : string }

let spans = ref []

let in_span ?(parent = "") name f =
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  spans := { s_name = name; s_start = t0; s_end = t1; s_parent = parent } :: !spans;
  (v, t1 -. t0)

(* Exact nearest-rank p99 of one span phase over all attempts: the trace
   holds only the positive durations (ascending), the other attempts are
   zeros. *)
let phase_p99 waited ~attempts =
  let k = Array.length waited in
  let n = max attempts k in
  let a = Array.make n 0.0 in
  Array.blit waited 0 a (n - k) k;
  nearest_rank a 0.99

let hist_total_mean h ~n_sites =
  let sum = ref 0.0 and n = ref 0 in
  for site = 0 to n_sites - 1 do
    let k = Stats.histogram_count h ~site in
    sum := !sum +. (Stats.histogram_mean h ~site *. float_of_int k);
    n := !n + k
  done;
  (!n, if !n = 0 then 0.0 else !sum /. float_of_int !n)

let traced name ~seed =
  let proto, p = workload name ~seed in
  let p = { p with profile = true; timeline_every = 100.0 } in
  let root = "bench.traced" in
  let (c, r, store_writes), _ =
    in_span root (fun () ->
        let placement, _ =
          in_span ~parent:root "workload.placement" (fun () -> placement p)
        in
        let c, _ =
          in_span ~parent:root "core.cluster_create" (fun () ->
              Cluster.create_with ~trace:true ~trace_capacity p placement)
        in
        let writes = ref 0 in
        Array.iter (fun st -> Store.set_write_hook st (fun _ -> incr writes)) c.stores;
        let r, _ = in_span ~parent:root "core.run_on" (fun () -> Driver.run_on c proto) in
        (* Repeat the run's own end-of-run checks as separate timed calls. *)
        if History.enabled c.history then
          ignore (in_span ~parent:root "txn.check" (fun () -> Serializability.check c.history));
        (* Timed for every protocol; run_on itself makes this call only
           for protocols that update replicas. *)
        ignore (in_span ~parent:root "core.convergence" (fun () -> Convergence.check c));
        (c, r, !writes))
  in
  let by_kind = Hashtbl.create 64 in
  let phases = Hashtbl.create 8 in
  Trace.iter c.trace (fun (e : Event.t) ->
      let k = Event.label e.kind in
      Hashtbl.replace by_kind k (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k));
      match e.kind with
      | Event.Span_phase { phase; dur; _ } ->
          Hashtbl.replace phases phase (dur :: Option.value ~default:[] (Hashtbl.find_opt phases phase))
      | _ -> ());
  let n_sites = p.n_sites in
  let phase name =
    let attempts, mean = hist_total_mean (Stats.histogram c.stats ("span." ^ name)) ~n_sites in
    let waited = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt phases name)) in
    Array.sort compare waited;
    O
      [
        ("attempts", I attempts);
        ("positive", I (Array.length waited));
        ("mean_ms", F mean);
        ("p99_ms", F (phase_p99 waited ~attempts));
        ("p99_waited_ms", F (nearest_rank waited 0.99));
      ]
  in
  let prop_n, prop_mean = hist_total_mean c.prop_hist ~n_sites in
  let span_json s =
    O
      [
        ("name", S s.s_name);
        ("start", F s.s_start);
        ("end", F s.s_end);
        ("parent", S s.s_parent);
      ]
  in
  emit
    [
      ("mode", S "traced");
      ("fingerprint", fingerprint r);
      ("counts", counts r c);
      ("store_writes", I store_writes);
      ("trace_events", I (Trace.length c.trace + Trace.dropped c.trace));
      ("trace_dropped", I (Trace.dropped c.trace));
      ( "trace_by_kind",
        O
          (Hashtbl.fold (fun k n acc -> (k, I n) :: acc) by_kind []
          |> List.sort (fun (a, _) (b, _) -> compare a b)) );
      ( "profile",
        O
          (List.map
             (fun (cat, events, wall_s, words) ->
               (cat, O [ ("events", I events); ("wall_s", F wall_s); ("minor_words", F words) ]))
             (Profile.rows r.profile)) );
      ( "phases",
        O (List.map (fun ph -> (ph, phase ph)) [ "lock"; "exec"; "prop"; "commit" ]) );
      ("prop_n", I prop_n);
      ("prop_mean_ms", F prop_mean);
      ("prop_p99_ms", F (Stats.percentile_total c.prop_hist 0.99));
      ("spans", L (List.rev_map span_json !spans));
    ]

(* {1 rungs} *)

(* Each rung is repeated and reported as its median: a unit cost in ns. *)
let rung_reps = 3

let rung f = median (List.init rung_reps (fun _ -> f ()))

(* The same delay pattern for the kernel rung and the network rung above it,
   so the network's incremental cost is the difference of the two. *)
let delay_of ~proc k = 0.05 *. float_of_int (1 + ((proc * 7) + k) land 15)

(* [procs] processes alternating [Sim.delay] with an optional [work k],
   [total] delays in all; returns (wall s, events executed). *)
let kernel_loop ~procs ~total ?(work = fun ~proc:_ _ -> ()) sim =
  let per = max 1 (total / procs) in
  for proc = 0 to procs - 1 do
    Sim.spawn sim (fun () ->
        for k = 1 to per do
          work ~proc k;
          Sim.delay (delay_of ~proc k)
        done)
  done;
  let (), dt = time (fun () -> Sim.run sim) in
  (dt, Sim.events_executed sim)

(* Kernel: ns per event of [Sim.spawn]/[delay]/[run] at the workload's
   client-process count. *)
let sim_rung ~procs () =
  let dt, events = kernel_loop ~procs ~total:300_000 (Sim.create ()) in
  dt *. 1e9 /. float_of_int events

(* Network: ns per [Network.send] plus its delivery, over the same kernel
   loop without messages. Senders are spread over the sites like clients. *)
let net_rung (p : Params.t) ~procs () =
  let total = 200_000 in
  let base, base_events = kernel_loop ~procs ~total (Sim.create ()) in
  let sim = Sim.create () and n = p.n_sites in
  let net =
    Network.create ~sim ~n_sites:n ~latency:(fun _ _ -> p.latency) ~on_send:ignore
      ~stats:(Stats.create ~n_sites:n ()) ()
  in
  for dst = 0 to n - 1 do
    Network.set_handler net dst (fun ~src:_ _ -> ())
  done;
  let work ~proc k =
    let src = proc mod n in
    Network.send net ~src ~dst:((src + 1 + (k mod (n - 1))) mod n) k
  in
  let dt, events = kernel_loop ~procs ~total ~work sim in
  let msgs = Network.messages_sent net in
  (* Charge the delivery events at the kernel's own per-event rate. *)
  let per_event = base /. float_of_int base_events in
  (dt -. (per_event *. float_of_int events)) *. 1e9 /. float_of_int msgs

(* [n] transactions drawn as the workload's clients draw them. *)
let gen_specs (p : Params.t) placement n =
  let gen = Generator.create (Rng.create p.seed) p placement in
  let rng = Rng.create (p.seed + 1) in
  Array.init n (fun k -> Generator.gen_with gen rng ~site:(k mod p.n_sites))

(* Workload: ns per [Generator.gen_with]. *)
let gen_rung (p : Params.t) placement () =
  let n = 20_000 in
  let _, dt = time (fun () -> gen_specs p placement n) in
  dt *. 1e9 /. float_of_int n

(* Lock manager: the generated op stream replayed through [Lock_mgr.acquire]
   and [release_all] on lock tables built as [Cluster] builds them, one
   transaction after another, so no request waits. ns per acquire, release
   included. *)
let lock_rung (p : Params.t) placement specs () =
  let sim = Sim.create () and n = p.n_sites in
  let stats = Stats.create ~n_sites:n () in
  let locks =
    Array.init n (fun site ->
        Lock_mgr.create ~sim ~policy:(`Timeout p.lock_timeout) ~site ~stats
          ~remap:(fun item -> Placement.placed_index placement ~site item)
          ())
  in
  let acquires = ref 0 in
  Sim.spawn sim (fun () ->
      Array.iteri
        (fun owner (spec : Txn.spec) ->
          let lm = locks.(spec.origin) in
          List.iter
            (fun op ->
              let item, mode =
                match op with
                | Txn.Read i -> (i, Lock_mgr.Shared)
                | Txn.Write i -> (i, Lock_mgr.Exclusive)
              in
              match Lock_mgr.acquire lm ~owner item mode with
              | Lock_mgr.Granted -> incr acquires
              | _ -> failwith "lock rung: uncontended request refused")
            spec.ops;
          Lock_mgr.release_all lm ~owner)
        specs);
  let (), dt = time (fun () -> Sim.run sim) in
  dt *. 1e9 /. float_of_int !acquires

(* Store: ns per [Store.apply] of the generated writes at their primaries. *)
let store_rung (p : Params.t) placement specs () =
  let stores =
    Array.init p.n_sites (fun site ->
        Store.create ~site (Array.to_list (Placement.placed_at placement site)))
  in
  let writes =
    Array.of_list
      (Array.fold_left
         (fun acc (spec : Txn.spec) ->
           List.fold_left (fun acc item -> (spec.origin, item) :: acc) acc (Txn.writes spec))
         [] specs)
  in
  let rounds = max 1 (200_000 / max 1 (Array.length writes)) in
  let (), dt =
    time (fun () ->
        for round = 1 to rounds do
          Array.iter (fun (site, item) -> Store.apply stores.(site) item ~writer:round ()) writes
        done)
  in
  dt *. 1e9 /. float_of_int (rounds * Array.length writes)

let rungs name ~seed =
  let _, p = workload name ~seed in
  let placement = placement p in
  let procs = p.n_sites * p.threads_per_site in
  let specs = gen_specs p placement 20_000 in
  emit
    [
      ("mode", S "rungs");
      ("sim_ns_per_event", F (rung (sim_rung ~procs)));
      ("net_ns_per_msg", F (rung (net_rung p ~procs)));
      ("lock_ns_per_acquire", F (rung (lock_rung p placement specs)));
      ("store_ns_per_write", F (rung (store_rung p placement specs)));
      ("workload_ns_per_txn_gen", F (rung (gen_rung p placement)));
    ]

(* {1 Command line} *)

let () =
  let usage () =
    prerr_endline
      ("usage: repbench (gate|timed|traced|rungs) --workload ("
      ^ String.concat "|" workload_names
      ^ ") --seed N");
    exit 2
  in
  let rec parse mode name seed = function
    | [] -> (mode, name, seed)
    | "--workload" :: w :: rest -> parse mode (Some w) seed rest
    | "--seed" :: n :: rest -> parse mode name (int_of_string_opt n) rest
    | m :: rest when mode = None -> parse (Some m) name seed rest
    | _ -> usage ()
  in
  match parse None None (Some 42) (List.tl (Array.to_list Sys.argv)) with
  | Some mode, Some name, Some seed when List.mem name workload_names -> (
      match mode with
      | "gate" -> gate name ~seed
      | "timed" -> timed name ~seed
      | "traced" -> traced name ~seed
      | "rungs" -> rungs name ~seed
      | _ -> usage ())
  | _ -> usage ()
