type phase = Lock_wait | Prop_wait | Commit

type open_rec = {
  o_gid : int;
  o_site : int;
  o_start : float;
  mutable o_lock : float;
  mutable o_prop : float;
  mutable o_commit : float;
}

type t = {
  h_lock : Stats.histogram;
  h_exec : Stats.histogram;
  h_prop : Stats.histogram;
  h_commit : Stats.histogram;
  h_think : Stats.histogram;
  trace : Trace.t;
  open_ : (int, open_rec) Hashtbl.t; (* attempt id -> open attempt *)
}

let create ~stats ~trace () =
  {
    h_lock = Stats.histogram stats "span.lock";
    h_exec = Stats.histogram stats "span.exec";
    h_prop = Stats.histogram stats "span.prop";
    h_commit = Stats.histogram stats "span.commit";
    h_think = Stats.histogram stats "span.think";
    trace;
    open_ = Hashtbl.create 64;
  }

let begin_ t ~owner ~gid ~site ~now =
  Hashtbl.replace t.open_ owner
    { o_gid = gid; o_site = site; o_start = now; o_lock = 0.0; o_prop = 0.0; o_commit = 0.0 }

(* Owners without an open record (secondary appliers, participants) fall
   through silently: only client attempts opened by [begin_] accumulate
   phases. *)
let add t ~owner phase dur =
  if dur > 0.0 then
    match Hashtbl.find_opt t.open_ owner with
    | None -> ()
    | Some r -> (
        match phase with
        | Lock_wait -> r.o_lock <- r.o_lock +. dur
        | Prop_wait -> r.o_prop <- r.o_prop +. dur
        | Commit -> r.o_commit <- r.o_commit +. dur)

let think t ~site dur = if dur > 0.0 then Stats.observe t.h_think ~site dur

let finish t ~owner ~now =
  match Hashtbl.find_opt t.open_ owner with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.open_ owner;
      let total = Float.max 0.0 (now -. r.o_start) in
      let accounted = r.o_lock +. r.o_prop +. r.o_commit in
      let exec = Float.max 0.0 (total -. accounted) in
      let site = r.o_site and gid = r.o_gid in
      Stats.observe t.h_lock ~site r.o_lock;
      Stats.observe t.h_exec ~site exec;
      Stats.observe t.h_prop ~site r.o_prop;
      Stats.observe t.h_commit ~site r.o_commit;
      if Trace.on t.trace then begin
        (* Lay the phases out back-to-back from the attempt's start so the
           Chrome exporter can render them as nested duration spans. The
           ordering is nominal (lock waits interleave with execution in
           reality); the durations are exact. *)
        let cursor = ref r.o_start in
        List.iter
          (fun (phase, dur) ->
            if dur > 0.0 then begin
              Trace.record t.trace
                (Event.Span_phase { gid; site; phase; t0 = !cursor; dur });
              cursor := !cursor +. dur
            end)
          [ ("lock", r.o_lock); ("exec", exec); ("prop", r.o_prop); ("commit", r.o_commit) ]
      end
