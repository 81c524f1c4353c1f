module Sim = Repdb_sim.Sim
module Value = Repdb_store.Value
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn

let name = "central"
let updates_replicas = true

let central_site = 0

type cert_msg =
  | Certify of { reads : (int * int) list; writes : int list; reply : bool -> unit }
  | Certify_reply of { ok : bool; deliver : bool -> unit }

type update_msg = { gid : int; writes : int list; origin_commit : float }

type t = {
  c : Cluster.t;
  net : cert_msg Network.t;
  update_net : update_msg Network.t;
  committed_version : int array; (* per item, at the central site *)
  mutable n_certified : int;
  mutable n_rejected : int;
}

let certified t = t.n_certified
let rejected t = t.n_rejected

(* The certification check itself: every read must still be current. Charged
   to the central site's CPU by the caller. *)
let decide t ~reads ~writes =
  let ok = List.for_all (fun (item, version) -> t.committed_version.(item) = version) reads in
  if ok then begin
    List.iter (fun item -> t.committed_version.(item) <- t.committed_version.(item) + 1) writes;
    t.n_certified <- t.n_certified + 1
  end
  else t.n_rejected <- t.n_rejected + 1;
  ok

let serve_certify t ~src ~reads ~writes ~reply =
  let c = t.c in
  (* The central site's CPU is the shared bottleneck. *)
  Cluster.use_cpu c central_site (c.params.cpu_msg +. c.params.cpu_op);
  let ok = decide t ~reads ~writes in
  Network.send t.net ~src:central_site ~dst:src (Certify_reply { ok; deliver = reply })

let cert_server t site =
  let c = t.c in
  Exec.serve t.net site (fun ~src -> function
    | Certify { reads; writes; reply } ->
        Sim.spawn c.sim (fun () -> serve_certify t ~src ~reads ~writes ~reply)
    | Certify_reply { ok; deliver } -> deliver ok)

(* One sequential applier per site: updates of an item all originate at its
   primary, so FIFO delivery + in-order application preserves the
   certification order (concurrent application could invert two updates that
   overlap on some items but not others). *)
let update_applier t site =
  Exec.serve t.update_net site (fun ~src:_ { gid; writes; origin_commit } ->
      Propagate.receive t.c ~site ~gid ~origin_commit writes)

let describe_cert = function
  | Certify { reads; writes; _ } ->
      ("certify", 16 + (12 * List.length reads) + (8 * List.length writes))
  | Certify_reply _ -> ("certify-reply", 16)

let describe_update (u : update_msg) = ("update", 24 + (8 * List.length u.writes))

let create (c : Cluster.t) =
  let t =
    {
      c;
      net = Cluster.make_net ~describe:describe_cert c;
      update_net = Cluster.make_net ~describe:describe_update c;
      committed_version = Array.make c.params.n_items 0;
      n_certified = 0;
      n_rejected = 0;
    }
  in
  Exec.spawn_servers c (fun site ->
      [ (fun () -> cert_server t site); (fun () -> update_applier t site) ]);
  t

let certify t ~site ~reads ~writes =
  let c = t.c in
  if site = central_site then begin
    Cluster.use_cpu c central_site c.params.cpu_op;
    decide t ~reads ~writes
  end
  else
    match
      Remote.call c ~site (fun reply ->
          Network.send t.net ~src:site ~dst:central_site (Certify { reads; writes; reply }))
    with
    | `Reply ok -> ok
    | `Deadline -> assert false (* no deadline: see central.mli *)

let submit t (spec : Txn.spec) =
  let c = t.c in
  Exec.primary c spec
    ~run:(fun f ->
      (* Execute under strict 2PL, capturing the version of every item read
         (the certification evidence). *)
      let reads = ref [] in
      Exec.run_ops c ~gid:f.gid ~attempt:f.attempt ~site:f.site spec.ops
        ~on_read:(fun item v -> reads := (item, v.Value.version) :: !reads)
      |> Result.map (fun () -> List.rev !reads))
    ~prepare:(fun f reads ->
      if certify t ~site:f.site ~reads ~writes:f.writes then Ok () else Error Txn.Remote_denied)
    ~publish:(fun f _ ->
      (* Lazy direct propagation; per-item streams are FIFO from the
         primary, so replicas apply in certification order. *)
      let msg = { gid = f.gid; writes = f.writes; origin_commit = Sim.now c.sim } in
      Propagate.fan_out c ~site:f.site f.writes (fun dst ->
          Network.send t.update_net ~src:f.site ~dst msg))

(* Placement is read afresh on every access; nothing cached to rebuild. *)
let reconfigure = Some ignore
