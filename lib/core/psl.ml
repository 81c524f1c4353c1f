module Lock_mgr = Repdb_lock.Lock_mgr
module Store = Repdb_store.Store
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "psl"
let updates_replicas = false

type t = { c : Cluster.t; net : Remote.msg Network.t; locks : Remote.t }

(* A shared lock at the primary ships the current value back with the grant. *)
let create (c : Cluster.t) =
  let net = Cluster.make_net ~describe:(Remote.describe Lock_mgr.Shared) c in
  let on_grant ~site ~owner:_ item =
    Cluster.use_cpu c site c.params.cpu_op;
    ignore (Store.read c.stores.(site) item)
  in
  let locks = Remote.locks ~on_grant c Lock_mgr.Shared ~send:(Network.send net) in
  Exec.spawn_servers c (fun site -> [ (fun () -> Exec.serve net site (Remote.handle locks ~site)) ]);
  { c; net; locks }

(* Remote primaries hold shared locks until the commit or abort releases
   them. *)
let submit t (spec : Txn.spec) =
  let c = t.c in
  let held = Remote.held () in
  let run (f : Exec.frame) =
    let site = f.site in
    let local op = Exec.run_ops c ~gid:f.gid ~attempt:f.attempt ~site [ op ] in
    let rec go = function
      | [] -> Ok ()
      | (Txn.Write _ as op) :: rest -> (match local op with Ok () -> go rest | e -> e)
      | (Txn.Read item as op) :: rest ->
          let primary = c.placement.primary.(item) in
          if primary = site then (match local op with Ok () -> go rest | e -> e)
          else begin
            let stale =
              if c.params.stale_reads > 0.0 && not (Network.reachable t.net ~src:site ~dst:primary)
              then Some (Cluster.staleness c ~site ~item)
              else None
            in
            match stale with
            | Some staleness when staleness <= c.params.stale_reads ->
                (* Graceful degradation: the primary is on the other side of
                   a partition and the local copy is within the staleness
                   bound — serve the read locally, outside the 1SR guarantee
                   (no lock, no history record). *)
                Cluster.use_cpu c site c.params.cpu_op;
                ignore (Store.read c.stores.(site) item);
                Cluster.record_stale_read c ~site ~item ~staleness;
                go rest
            | _ -> (
                (* The round-trip to the primary is the PSL propagation
                   wait: lock-grant latency shows up at the reader. A lock
                   granted after the deadline is freed by the abort's
                   release. *)
                match
                  Exec.prop_wait f (fun () -> Remote.acquire t.locks f held ~dst:primary item)
                with
                | Ok () ->
                    Cluster.use_cpu c site c.params.cpu_msg;
                    go rest
                | e -> e)
          end
    in
    go spec.ops
  in
  Exec.primary ~replicated:false c spec ~run
    ~cleanup:(fun f -> ignore (Remote.release t.locks f held))
    ~publish:(fun f () -> Propagate.charge c ~site:f.site (Remote.release t.locks f held))

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
