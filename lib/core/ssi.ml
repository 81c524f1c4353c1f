module Sim = Repdb_sim.Sim
module History = Repdb_txn.History
module Store = Repdb_store.Store
module Value = Repdb_store.Value
module Mvstore = Repdb_store.Mvstore
module Network = Repdb_net.Network
module Txn = Repdb_txn.Txn
module Tracker = Repdb_occ.Conflict_tracker
module Placement = Repdb_workload.Placement

let name = "ssi"
let updates_replicas = true

let certifier_site = 0

type msg =
  | Snap_request of {
      item : int;
      ts : float;
      gid : int;
      attempt : int;
      reply : int option -> unit;
    }
  | Snap_reply of { version : int option; deliver : int option -> unit }
  | Certify of { txn : Tracker.txn; reply : Tracker.verdict -> unit }
  | Cert_reply of { verdict : Tracker.verdict; deliver : Tracker.verdict -> unit }

type update_msg = {
  u_gid : int;
  u_writes : (int * int) list; (* (item, version) *)
  u_commit_ts : float; (* certification timestamp, keys the version chains *)
  u_origin_commit : float;
  u_epoch : int;
}

type t = {
  c : Cluster.t;
  net : msg Network.t;
  update_net : update_msg Network.t;
  tracker : Tracker.t;
  mv : Mvstore.t array; (* per-site version chains beside the flat stores *)
}

(* Install a certified transaction at its origin primary and fan it out.
   Runs where the verdict lands, before the client resumes (the certifier's
   replies are FIFO and this site is the single primary of everything in
   [vwrites]), so versions apply in certification order even when the
   waiting client already gave up on its deadline. *)
let apply_commit t ~site ~gid ~attempt ~commit_ts vwrites =
  let c = t.c in
  Exec.commit_certified c ~gid ~attempt ~site vwrites ~on_apply:(fun item version ->
      Mvstore.append t.mv.(site) ~item ~version ~commit_ts);
  let u =
    {
      u_gid = gid;
      u_writes = vwrites;
      u_commit_ts = commit_ts;
      u_origin_commit = Sim.now c.sim;
      u_epoch = c.config_epoch;
    }
  in
  Propagate.fan_out c ~site (List.map fst vwrites) (fun dst ->
      Network.send t.update_net ~src:site ~dst u)

let server t site =
  let c = t.c in
  Exec.serve t.net site (fun ~src -> function
    | Snap_request { item; ts; gid; attempt; reply } ->
        Cluster.use_cpu c site c.params.cpu_msg;
        let version =
          if Store.mem c.stores.(site) item then Mvstore.read_at t.mv.(site) ~item ~ts
          else None
        in
        (match version with
        | Some v ->
            Cluster.use_cpu c site c.params.cpu_op;
            History.record c.history ~site ~item ~gid ~attempt ~version:v History.R
        | None -> ());
        Network.send t.net ~src:site ~dst:src (Snap_reply { version; deliver = reply })
    | Snap_reply { version; deliver } -> deliver version
    | Certify { txn; reply } ->
        assert (site = certifier_site);
        Cluster.use_cpu c site (c.params.cpu_msg +. c.params.cpu_op);
        let verdict = Tracker.certify t.tracker ~now:(Sim.now c.sim) txn in
        Cluster.use_cpu c site c.params.cpu_msg;
        Network.send t.net ~src:site ~dst:src (Cert_reply { verdict; deliver = reply })
    | Cert_reply { verdict; deliver } -> deliver verdict)

let update_applier t site =
  let c = t.c in
  Exec.serve t.update_net site (fun ~src:_ u ->
      Propagate.receive c ~site ~epoch:u.u_epoch ~gid:u.u_gid ~origin_commit:u.u_origin_commit
        ~install:(fun local ->
          Exec.apply_versioned c ~gid:u.u_gid ~site
            (List.filter (fun (item, _) -> List.mem item local) u.u_writes)
            ~on_apply:(fun item version ->
              Mvstore.append t.mv.(site) ~item ~version ~commit_ts:u.u_commit_ts))
        (List.map fst u.u_writes))

let describe_msg = function
  | Snap_request _ -> ("snap-request", 24)
  | Snap_reply _ -> ("snap-reply", 16)
  | Certify { txn; _ } ->
      ("certify", 16 + (12 * (List.length txn.Tracker.reads + List.length txn.Tracker.writes)))
  | Cert_reply _ -> ("cert-reply", 16)

let describe_update (u : update_msg) = ("ssi-update", 24 + (8 * List.length u.u_writes))

let create (c : Cluster.t) =
  let t =
    {
      c;
      net = Cluster.make_net ~describe:describe_msg c;
      update_net = Cluster.make_net ~describe:describe_update c;
      tracker = Tracker.create ();
      mv =
        Array.init c.params.n_sites (fun site ->
            Mvstore.create (Store.items c.stores.(site)));
    }
  in
  Exec.spawn_servers c (fun site ->
      [ (fun () -> server t site); (fun () -> update_applier t site) ]);
  t

(* Available-copies snapshot read: the local chain could not serve the
   begin-timestamp version (truncated, or the copy arrived after a
   reconfiguration), so ask the other copy sites in placement order,
   skipping crashed or partitioned ones. *)
let remote_snapshot_read t ~site ~item ~begin_ts ~gid ~attempt ~deadline_at =
  let c = t.c in
  let candidates =
    c.placement.primary.(item) :: Array.to_list c.placement.replicas.(item)
  in
  let rec go answered = function
    | [] -> if answered then `Exhausted else `Unreachable
    | s :: rest when s = site -> go answered rest
    | s :: rest ->
        if (not (Cluster.site_up c s)) || not (Network.reachable t.net ~src:site ~dst:s) then
          go answered rest
        else
          match
            Remote.call c ~site ~deadline_at (fun reply ->
                Network.send t.net ~src:site ~dst:s
                  (Snap_request { item; ts = begin_ts; gid; attempt; reply }))
          with
          | `Reply (Some v) -> `Got v
          | `Reply None -> go true rest
          | `Deadline -> `Deadline
  in
  go false candidates

let submit t (spec : Txn.spec) =
  let c = t.c in
  let f = Exec.begin_ c spec in
  let site = f.site and gid = f.gid and attempt = f.attempt and deadline_at = f.deadline_at in
  let begin_ts = Sim.now c.sim in
  (* Register with the certifier's GC window. Modelled as piggybacked
     metadata (no message): it only bounds what the tracker may forget. *)
  Tracker.begin_txn t.tracker ~gid ~begin_ts;
  (* Abort on a path where certification will never run for this gid, so the
     registration must be withdrawn here. After the certify message is sent,
     [Tracker.certify] deregisters — even if the client stops waiting. *)
  let abort reason = Exec.abort f reason ~cleanup:(fun () -> Tracker.forget t.tracker ~gid) in
  let rec run reads = function
    | [] -> Ok (List.rev reads)
    | Txn.Write _ :: rest ->
        Cluster.use_cpu c site c.params.cpu_op;
        run reads rest
    | Txn.Read item :: rest -> (
        Cluster.use_cpu c site c.params.cpu_op;
        match Mvstore.read_at t.mv.(site) ~item ~ts:begin_ts with
        | Some v ->
            History.record c.history ~site ~item ~gid ~attempt ~version:v History.R;
            run ((item, v) :: reads) rest
        | None -> (
            match
              Exec.prop_wait f (fun () ->
                  remote_snapshot_read t ~site ~item ~begin_ts ~gid ~attempt ~deadline_at)
            with
            | `Got v -> run ((item, v) :: reads) rest
            | `Exhausted ->
                (* No available copy retains the snapshot version. *)
                Error Txn.Validation_failed
            | `Unreachable -> Error Txn.Partitioned
            | `Deadline -> Error Txn.Deadline_exceeded))
  in
  match run [] spec.ops with
  | Error reason -> abort reason
  | Ok reads -> (
      let txn = { Tracker.gid; begin_ts; reads; writes = f.writes } in
      if Sim.now c.sim >= deadline_at then abort Txn.Deadline_exceeded
      else if
        site <> certifier_site && not (Network.reachable t.net ~src:site ~dst:certifier_site)
      then abort Txn.Partitioned
      else
        let landed = function
          | Tracker.Commit { commit_ts; writes } ->
              apply_commit t ~site ~gid ~attempt ~commit_ts writes
          | Tracker.Abort _ -> ()
        in
        let sent = ref false in
        let verdict =
          Exec.prop_wait f (fun () ->
              if site = certifier_site then begin
                Cluster.use_cpu c site c.params.cpu_op;
                let v = Tracker.certify t.tracker ~now:(Sim.now c.sim) txn in
                landed v;
                `Reply v
              end
              else
                Remote.call c ~site ~deadline_at (fun reply ->
                    sent := true;
                    Network.send t.net ~src:site ~dst:certifier_site
                      (Certify { txn; reply = (fun v -> landed v; reply v) })))
        in
        match verdict with
        | `Reply (Tracker.Commit _) -> Txn.Committed
        | `Reply (Tracker.Abort cause) ->
            Exec.abort f
              (match cause with
              | Tracker.Stale_read -> Txn.Validation_failed
              | Tracker.Ww_conflict -> Txn.First_committer_lost
              | Tracker.Dangerous -> Txn.Dangerous_structure)
        | `Deadline when !sent ->
            (* The certifier will still process the request; it deregisters
               the gid and a certified winner applies where the verdict
               lands. Only the client-side reads are withdrawn. *)
            Exec.abort f Txn.Deadline_exceeded
        | `Deadline ->
            (* The request's charge ran past the deadline, so the certifier
               never sees this gid: withdraw its registration. *)
            abort Txn.Deadline_exceeded)

(* After an epoch switch the placement changed under the version chains:
   drop chains for copies no longer here and seed fresh chains (at the
   switch timestamp) for copies that just arrived by state transfer. Seeded
   chains cannot serve snapshots older than the switch — such reads fall
   back to another copy or abort, they never weaken the snapshot. The
   tracker itself keys by item and survives unchanged. *)
let reconfigure =
  Some
    (fun t ->
      let c = t.c in
      let now = Sim.now c.sim in
      for site = 0 to c.params.n_sites - 1 do
        let mv = t.mv.(site) in
        List.iter
          (fun item -> if not (Placement.has_copy c.placement ~site item) then Mvstore.drop mv ~item)
          (Mvstore.items mv);
        Array.iter
          (fun item ->
            if not (Mvstore.mem mv item) then
              Mvstore.seed mv ~item ~version:(Store.read c.stores.(site) item).Value.version
                ~commit_ts:now)
          (Placement.placed_at c.placement site)
      done)
