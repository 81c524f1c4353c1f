module Params = Repdb_workload.Params
module Placement = Repdb_workload.Placement
module Pool = Repdb_par.Pool

type point = { x : float; reports : (string * Driver.report) list }
type figure = { id : string; title : string; xlabel : string; points : point list }

type job = {
  label : string;
  params : Params.t;
  protocol : Protocol.t;
  placement : Placement.t option;
}

type kind =
  | Sweep of {
      xlabel : string;
      protocols : Protocol.t list;
      values : steps:int -> float list;
      at : Params.t -> float -> Params.t;
    }
  | Runs of (Params.t -> job list)

type entry = { exp_id : string; title : string; kind : kind }
type outcome = Figure of figure | Reports of (string * Driver.report) list

let be_psl : Protocol.t list = [ (module Backedge_proto); (module Psl) ]

(* The lazy trio the robustness sweeps compare; they all run at b = 0 so the
   copy graph is a DAG and DAG(WT) is applicable. *)
let be_dag_psl : Protocol.t list = [ (module Backedge_proto); (module Dag_wt); (module Psl) ]

let probs ~steps = List.init (steps + 1) (fun i -> float_of_int i /. float_of_int steps)
let fixed values ~steps:_ = values
let extreme base = { base with Params.replication_prob = 0.5; read_txn_prob = 0.0 }

(* One job per protocol, labelled with the protocol's name. *)
let each params protocols =
  List.map (fun p -> { label = Protocol.name p; params; protocol = p; placement = None }) protocols

let ordered_backedge name order : Protocol.t =
  (module struct
    type t = Backedge_proto.t

    let name = name
    let updates_replicas = true
    let create c = Backedge_proto.create_with_order c order
    let submit = Backedge_proto.submit
    let reconfigure = Backedge_proto.reconfigure
  end : Protocol.S)

(* Site ordering (Section 4.2 in protocol form): a hub site that replicates
   reference data to every spoke. Numbered last, the hub makes every
   copy-graph edge a backedge, so each of its updates runs the eager path; a
   feedback-arc-set-derived order puts the hub first and makes the whole
   graph forward. The report's n_backedges is counted under the identity
   order: the fas order removes them from the protocol's tree even though
   the copy graph is unchanged. *)
let site_order_jobs base =
  let m = base.Params.n_sites in
  let hub = m - 1 in
  let n_reference = 30 and n_local = 10 in
  let n_items = n_reference + ((m - 1) * n_local) in
  let primary = Array.make n_items hub in
  let replicas = Array.make n_items [] in
  let spokes = List.init (m - 1) Fun.id in
  for i = 0 to n_reference - 1 do
    replicas.(i) <- spokes
  done;
  for s = 0 to m - 2 do
    for k = 0 to n_local - 1 do
      primary.(n_reference + (s * n_local) + k) <- s
    done
  done;
  let placement = Placement.make ~n_sites:m ~n_items ~primary ~replicas in
  let params = { base with Params.n_items } in
  (* FAS-derived order: peel the copy graph with the weighted greedy
     heuristic; here it simply puts the hub before its spokes. *)
  let g = Placement.copy_graph placement in
  let fas = Repdb_graph.Backedge.greedy_fas g ~weight:(fun _ _ -> 1.0) in
  let gdag = Repdb_graph.Digraph.remove_edges g fas in
  let order =
    match Repdb_graph.Digraph.topo_sort gdag with Some o -> Array.of_list o | None -> assert false
  in
  (* The two runs share [placement] read-only; each builds its own cluster. *)
  List.map
    (fun (label, order) ->
      { label; params; protocol = ordered_backedge "backedge" order; placement = Some placement })
    [ ("identity-order", Array.init m Fun.id); ("fas-order", order) ]

(* Availability under a clean two-way split (first half of the sites vs the
   second) from t = 100 ms: deadlines keep parked eager work bounded, backoff
   retry lets clients ride the partition out, and PSL's bounded-staleness
   fallback serves reads locally meanwhile. [d] is the partition duration;
   0 means no partition (the baseline). *)
let partition_at (base : Params.t) d =
  let base =
    { base with Params.backedge_prob = 0.0; txn_deadline = 250.0;
                retry = Params.default_backoff; stale_reads = 60_000.0 }
  in
  let m = base.n_sites in
  let near = List.init (m / 2) Fun.id and far = List.init (m - (m / 2)) (fun i -> (m / 2) + i) in
  if d <= 0.0 then base
  else
    { base with
      faults = { Repdb_fault.Fault.empty with
                 partitions = [ { from_t = 100.0; until_t = 100.0 +. d; groups = [ near; far ] } ] } }

(* Self-healing MTTR vs the phi suspicion threshold. Every point runs the
   same crash-the-primary-plus-corruption schedule with healing on and no
   operator-scheduled recovery: site 1 (a primary for ~1/m of the items)
   crashes mid-run and silent corruption scrambles site 2's replica copies;
   the healer must detect, fail over and repair on its own. Low thresholds
   detect fast but risk false failovers under latency jitter, high ones sit
   through long outages: the trade-off the mttr_ms/unavail_ms columns
   quantify. Deadline + retry keep the weak drain bounded (PSL's synchronous
   remote reads need the deadline) and let clients ride the outage out. *)
let heal_at (base : Params.t) phi =
  { base with Params.backedge_prob = 0.0; heal = true; txn_deadline = 400.0;
              retry = Params.default_backoff; txns_per_thread = max base.txns_per_thread 200;
              faults = { Repdb_fault.Fault.empty with
                         crashes = [ { site = 1; at = 400.0; down_for = 800.0 } ];
                         corruptions = [ { c_site = 2; c_at = 600.0; c_prob = 0.3 } ] };
              phi_threshold = phi }

(* --- registry --------------------------------------------------------------
   The only list of experiments. The CLI's `experiment` subcommand, both
   bench executables and the tests derive their help text, dispatch and
   figure lists from it. A [Sweep] runs every protocol at every value, with
   the run's params built by [at base x] inside its task; [Runs] is a flat
   list of labelled jobs whose full reports are printed. *)

let registry =
  [
    { exp_id = "fig2a"; title = "Throughput vs backedge probability (Figure 2a)";
      kind = Sweep { xlabel = "backedge probability b"; protocols = be_psl; values = probs;
                     at = (fun base b -> { base with backedge_prob = b }) } };
    { exp_id = "fig2b"; title = "Throughput vs replication probability (Figure 2b)";
      kind = Sweep { xlabel = "replication probability r"; protocols = be_psl; values = probs;
                     at = (fun base r -> { base with replication_prob = r }) } };
    { exp_id = "fig3a"; title = "Throughput vs read-op probability, b=0 (Figure 3a)";
      kind = Sweep { xlabel = "read operation probability"; protocols = be_psl; values = probs;
                     at = (fun base p -> { (extreme base) with backedge_prob = 0.0; read_op_prob = p }) } };
    { exp_id = "fig3b"; title = "Throughput vs read-op probability, b=1 (Figure 3b)";
      kind = Sweep { xlabel = "read operation probability"; protocols = be_psl; values = probs;
                     at = (fun base p -> { (extreme base) with backedge_prob = 1.0; read_op_prob = p }) } };
    (* The paper reports ~180 ms response time for BackEdge vs ~260 ms for
       PSL, and propagation delays of "a few hundred millisec". *)
    { exp_id = "resp"; title = "Response time and propagation delay at the defaults (Section 5.3.4)";
      kind = Runs (fun base -> each base be_psl) };
    { exp_id = "sites"; title = "Throughput vs number of sites";
      kind = Sweep { xlabel = "sites m"; protocols = be_psl; values = fixed [ 3.0; 6.0; 9.0; 12.0; 15.0 ];
                     at = (fun base m -> { base with n_sites = int_of_float m }) } };
    { exp_id = "threads"; title = "Throughput vs threads per site";
      kind = Sweep { xlabel = "threads/site"; protocols = be_psl; values = fixed [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
                     at = (fun base k -> { base with threads_per_site = int_of_float k }) } };
    { exp_id = "latency"; title = "Throughput vs network latency";
      kind = Sweep { xlabel = "latency (ms)"; protocols = be_psl;
                     values = fixed [ 0.15; 1.0; 5.0; 20.0; 50.0; 100.0 ];
                     at = (fun base l -> { base with latency = l }) } };
    { exp_id = "readtxn"; title = "Throughput vs read-transaction probability";
      kind = Sweep { xlabel = "read transaction probability"; protocols = be_psl; values = probs;
                     at = (fun base p -> { base with read_txn_prob = p }) } };
    (* b = 0 so the DAG protocols are applicable; dag-t-mc is DAG(T) with the
       Section 3.2.3 pipelined applier. *)
    { exp_id = "ablation"; title = "Every protocol on a DAG copy graph (b=0, defaults)";
      kind = Runs (fun base ->
          each { base with backedge_prob = 0.0 } (Registry.all @ [ Registry.dag_t_pipelined ])) };
    (* The introduction's "eager does not scale" claim plus Section 1.2's
       "the central site becomes a bottleneck". *)
    { exp_id = "eager-scaling"; title = "Eager / central-cert / lazy-master vs lazy as sites grow";
      kind = Sweep { xlabel = "sites m";
                     protocols = [ (module Eager); (module Central); (module Lazy_master);
                                   (module Backedge_proto); (module Psl) ];
                     values = fixed [ 3.0; 6.0; 9.0; 12.0; 15.0 ];
                     at = (fun base m -> { base with n_sites = int_of_float m }) } };
    (* Chain-tree BackEdge (the paper's evaluated variant) vs the general
       per-component tree, which Section 5.1 expects to win. *)
    { exp_id = "tree-routing"; title = "BackEdge: chain tree vs general per-component tree";
      kind = Sweep { xlabel = "backedge probability b"; values = probs;
                     protocols = [ (module Backedge_proto); Registry.backedge_general ];
                     at = (fun base b -> { base with backedge_prob = b }) } };
    (* The paper's 50 ms timeout vs local waits-for-graph detection, with the
       timeout kept as a distributed-deadlock backstop. *)
    { exp_id = "deadlock-policy"; title = "Timeout vs waits-for-graph deadlock handling (defaults)";
      kind = Runs (fun base ->
          List.concat_map
            (fun (suffix, policy) ->
              List.map (fun j -> { j with label = j.label ^ "/" ^ suffix })
                (each { base with deadlock_policy = policy } be_psl))
            [ ("timeout", `Timeout); ("detect", `Detect) ]) };
    (* The cost of DAG(T)'s Section 3.3 progress machinery (b = 0). *)
    { exp_id = "dummy-period"; title = "DAG(T): propagation delay vs dummy idle threshold";
      kind = Sweep { xlabel = "dummy idle threshold (ms)"; protocols = [ (module Dag_t) ];
                     values = fixed [ 10.0; 25.0; 50.0; 100.0; 200.0 ];
                     at = (fun base d ->
                         { base with backedge_prob = 0.0; dummy_idle = d; epoch_period = 2.0 *. d }) } };
    { exp_id = "hotspot"; title = "Hotspot skew: throughput vs hot-access probability";
      kind = Sweep { xlabel = "hot access probability (hot set = 20% of the pool)"; protocols = be_psl;
                     values = fixed [ 0.0; 0.3; 0.5; 0.7; 0.9 ];
                     at = (fun base h -> { base with hot_access_prob = h }) } };
    (* The centralized certifier, whose central site lives on the straggler,
       collapses; the decentralized lazy protocols degrade gracefully. *)
    { exp_id = "straggler"; title = "Straggler machine: throughput vs CPU slowdown of machine 0";
      kind = Sweep { xlabel = "straggler slowdown factor";
                     protocols = [ (module Backedge_proto); (module Psl); (module Central) ];
                     values = fixed [ 1.0; 2.0; 4.0; 8.0 ];
                     at = (fun base f -> { base with straggler_machine = 0; straggler_factor = f }) } };
    { exp_id = "site-order";
      title = "BackEdge site ordering on a hub topology: identity vs FAS-derived order (Section 4.2)";
      kind = Runs site_order_jobs };
    (* The x axis is the number of injected crashes; each point draws its
       crash instants/downtimes from [Fault.synthetic] on the run seed, so
       the whole figure is deterministic in [base]. Convergence lag under
       faults shows up in the avg_propagation column. *)
    { exp_id = "faults"; title = "Throughput and propagation lag vs injected crash count";
      kind = Sweep { xlabel = "site crashes injected"; protocols = be_dag_psl;
                     values = fixed [ 0.0; 1.0; 2.0; 4.0; 8.0 ];
                     at = (fun base k ->
                         { base with backedge_prob = 0.0;
                                     faults = Repdb_fault.Fault.synthetic ~n_sites:base.n_sites
                                         ~seed:base.seed ~n_crashes:(int_of_float k) () }) } };
    (* The x axis is the number of reconfiguration steps executed mid-run;
       each point draws its plan from [Reconfig.synthetic] on the run seed
       (b = 0 also keeps synthetic add/drop/rebalance steps from making the
       copy graph cyclic). The mid-run throughput dip shows up in the
       reconfig_stall_ms column and through it in throughput_per_site. *)
    { exp_id = "reconfig"; title = "Throughput and switch cost vs online reconfigurations";
      kind = Sweep { xlabel = "reconfiguration steps executed"; protocols = be_dag_psl;
                     values = fixed [ 0.0; 1.0; 2.0; 4.0; 8.0 ];
                     at = (fun base k ->
                         { base with backedge_prob = 0.0;
                                     reconfig = Repdb_reconfig.Reconfig.synthetic ~n_sites:base.n_sites
                                         ~n_items:base.n_items ~seed:base.seed
                                         ~n_steps:(int_of_float k) () }) } };
    { exp_id = "partition"; title = "Availability under a network partition vs its duration";
      kind = Sweep { xlabel = "partition duration (ms)"; protocols = be_dag_psl;
                     values = fixed [ 0.0; 250.0; 500.0; 1000.0; 2000.0 ]; at = partition_at } };
    (* Optimistic vs locking under contention. At theta = 0 access is
       uniform and optimistic execution wins on commit rate (no lock waits,
       the epoch batch amortizes the certification round trip); as theta
       grows the hottest items concentrate the read/write sets and the
       optimistic protocols pay with validation aborts instead of lock
       waits, visible in the per-reason abort columns. *)
    { exp_id = "occ"; title = "Optimistic vs locking: throughput and abort mix vs Zipf skew";
      kind = Sweep { xlabel = "zipf skew theta (item selection)";
                     protocols = (module Occ_epoch) :: (module Ssi) :: be_dag_psl;
                     values = fixed [ 0.0; 0.5; 0.7; 0.9; 0.99 ];
                     at = (fun base theta -> { base with backedge_prob = 0.0; zipf_theta = theta }) } };
    { exp_id = "heal"; title = "Self-healing: MTTR and availability vs detector threshold";
      kind = Sweep { xlabel = "phi suspicion threshold"; protocols = be_dag_psl;
                     values = fixed [ 2.0; 4.0; 8.0; 16.0; 32.0 ]; at = heal_at } };
  ]

let ids = List.map (fun e -> e.exp_id) registry
let find id = List.find_opt (fun e -> e.exp_id = id) registry

(* Every fan-out goes through [run_tasks]: an array of independent thunks
   (each one a self-contained [Driver.run] — own [Sim.t], [Rng], cluster,
   trace) evaluated either sequentially or on the pool. [Pool.map] lands
   results by input index, so the two paths produce identical arrays; see
   the determinism test in [test/test_par.ml]. *)
let run_tasks ?pool tasks =
  match pool with
  | None -> Array.map (fun task -> task ()) tasks
  | Some pool -> Pool.map pool tasks ~f:(fun task -> task ())

let sweep pool base steps ~id ~title ~xlabel ~protocols ~values ~at =
  (* One task per protocol x x-value pair, row-major by point so the grid
     reassembles in figure order whatever the parallel interleaving was. *)
  let protos = Array.of_list protocols in
  let xs = Array.of_list (values ~steps) in
  let np = Array.length protos in
  let reports =
    run_tasks ?pool
      (Array.init
         (Array.length xs * np)
         (fun i ->
           let x = xs.(i / np) and p = protos.(i mod np) in
           fun () -> Driver.run (at base x) p))
  in
  let points =
    List.init (Array.length xs) (fun xi ->
        {
          x = xs.(xi);
          reports = List.init np (fun pi -> (Protocol.name protos.(pi), reports.((xi * np) + pi)));
        })
  in
  { id; title; xlabel; points }

let run ?pool ?(base = Params.default) ?(steps = 10) e =
  match e.kind with
  | Sweep { xlabel; protocols; values; at } ->
      Figure
        (sweep pool base steps ~id:e.exp_id ~title:e.title ~xlabel ~protocols ~values ~at)
  | Runs jobs_of ->
      let jobs = Array.of_list (jobs_of base) in
      let reports =
        run_tasks ?pool
          (Array.map
             (fun j () -> Driver.run ?placement:j.placement j.params j.protocol)
             jobs)
      in
      Reports (Array.to_list (Array.map2 (fun j r -> (j.label, r)) jobs reports))

let figure ?pool ?(base = Params.default) ?(steps = 10) id =
  match find id with
  | Some { exp_id; title; kind = Sweep { xlabel; protocols; values; at } } ->
      sweep pool base steps ~id:exp_id ~title ~xlabel ~protocols ~values ~at
  | Some { kind = Runs _; _ } | None -> invalid_arg ("Experiment.figure: no sweep " ^ id)

let pp_point ppf (pt : point) =
  List.iter
    (fun (name, (r : Driver.report)) ->
      Fmt.pf ppf "  x=%-6g %-9s thr/site=%7.2f  abort=%6.2f%%  resp=%7.1fms  prop=%7.1fms  msgs=%d@,"
        pt.x name r.summary.throughput_per_site r.summary.abort_rate r.summary.avg_response
        r.summary.avg_propagation r.summary.messages)
    pt.reports

let pp_figure ppf fig =
  Fmt.pf ppf "@[<v>== %s: %s (x = %s)@,%a@]" fig.id fig.title fig.xlabel
    (fun ppf points -> List.iter (pp_point ppf) points)
    fig.points

let pp_reports ppf reports =
  List.iter
    (fun (name, r) -> Fmt.pf ppf "@[<v 2>-- %s --@,%a@]@." name Driver.pp_report r)
    reports

let render_ascii fig =
  let width = 64 and height = 18 in
  let protocols =
    match fig.points with [] -> [] | pt :: _ -> List.map fst pt.reports
  in
  let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |] in
  let glyph_of i = glyphs.(i mod Array.length glyphs) in
  let xs = List.map (fun pt -> pt.x) fig.points in
  let ys =
    List.concat_map
      (fun pt -> List.map (fun (_, (r : Driver.report)) -> r.summary.throughput_per_site) pt.reports)
      fig.points
  in
  match (xs, ys) with
  | [], _ | _, [] -> "(no data)\n"
  | _ ->
      let x_min = List.fold_left min (List.hd xs) xs
      and x_max = List.fold_left max (List.hd xs) xs in
      let y_max = List.fold_left max 0.0 ys in
      let y_max = if y_max <= 0.0 then 1.0 else y_max *. 1.05 in
      let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
      let grid = Array.init height (fun _ -> Bytes.make width ' ') in
      List.iter
        (fun pt ->
          let col =
            int_of_float ((pt.x -. x_min) /. x_span *. float_of_int (width - 1))
          in
          List.iteri
            (fun i (_, (r : Driver.report)) ->
              let y = r.summary.throughput_per_site in
              let row =
                height - 1 - int_of_float (y /. y_max *. float_of_int (height - 1))
              in
              let row = max 0 (min (height - 1) row) in
              Bytes.set grid.(row) col (glyph_of i))
            pt.reports)
        fig.points;
      let buf = Buffer.create 2048 in
      Array.iteri
        (fun row line ->
          let label =
            if row = 0 then Printf.sprintf "%8.1f |" y_max
            else if row = height - 1 then Printf.sprintf "%8.1f |" 0.0
            else "         |"
          in
          Buffer.add_string buf label;
          Buffer.add_bytes buf line;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf ("         +" ^ String.make width '-' ^ "\n");
      Buffer.add_string buf
        (Printf.sprintf "          %-8g%s%8g\n" x_min
           (String.make (width - 16) ' ')
           x_max);
      Buffer.add_string buf (Printf.sprintf "          x = %s; y = throughput/site;" fig.xlabel);
      List.iteri
        (fun i name -> Buffer.add_string buf (Printf.sprintf " %c %s" (glyph_of i) name))
        protocols;
      Buffer.add_char buf '\n';
      Buffer.contents buf

let reason_count (r : Driver.report) reason =
  match List.assoc_opt reason r.summary.aborts_by_reason with Some n -> n | None -> 0

(* One [aborts_*] column per {!Repdb_txn.Txn.abort_reason} constructor, in
   [Txn.all_abort_reasons] order: adding a reason adds a column, nothing is
   lumped into an aggregate. *)
let abort_columns =
  List.map
    (fun r ->
      "aborts_"
      ^ String.map (fun ch -> if ch = '-' then '_' else ch) (Repdb_txn.Txn.string_of_abort r))
    Repdb_txn.Txn.all_abort_reasons

let to_csv fig =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    ("figure,x,protocol,throughput_per_site,abort_rate,avg_response,p99_response,avg_propagation,messages,reconfigs,state_transfers,reconfig_stall_ms,"
    ^ String.concat "," abort_columns
    ^ ",stale_reads,max_staleness_ms,unavail_ms,mttr_ms,failovers,repaired_items\n");
  List.iter
    (fun pt ->
      List.iter
        (fun (name, (r : Driver.report)) ->
          let mttr, failovers, repaired =
            match r.heal with
            | None -> (0.0, 0, 0)
            | Some h -> (h.Heal_exec.mttr_mean, h.failovers, h.repaired_items)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "%s,%g,%s,%.4f,%.4f,%.2f,%.2f,%.2f,%d,%d,%d,%.2f,%s,%d,%.2f,%.2f,%.2f,%d,%d\n"
               fig.id pt.x name r.summary.throughput_per_site r.summary.abort_rate
               r.summary.avg_response r.summary.p99_response r.summary.avg_propagation
               r.summary.messages r.reconfigs r.state_transfers r.reconfig_stall
               (String.concat ","
                  (List.map
                     (fun reason -> string_of_int (reason_count r reason))
                     Repdb_txn.Txn.all_abort_reasons))
               r.summary.stale_reads r.summary.max_staleness r.summary.unavail_ms mttr failovers
               repaired))
        pt.reports)
    fig.points;
  Buffer.contents buf

let outcome_to_csv e = function
  | Figure fig -> to_csv fig
  | Reports rs ->
      to_csv { id = e.exp_id; title = e.title; xlabel = ""; points = [ { x = 0.0; reports = rs } ] }

(* Per-run timelines collected by an outcome (present when the base params
   had [timeline_every > 0]), each under a filesystem-safe basename. *)
let timeline_files outcome =
  let clean s =
    String.map
      (fun ch ->
        match ch with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ch | _ -> '_')
      s
  in
  let of_reports prefix rs =
    List.filter_map
      (fun (label, (r : Driver.report)) ->
        Option.map (fun tl -> (clean (prefix ^ label), tl)) r.timeline)
      rs
  in
  match outcome with
  | Reports rs -> of_reports "" rs
  | Figure f ->
      List.concat_map
        (fun pt -> of_reports (Printf.sprintf "%s_x%g_" f.id pt.x) pt.reports)
        f.points
