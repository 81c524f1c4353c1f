module Txn = Repdb_txn.Txn
module Stats = Repdb_obs.Stats

type t = {
  mutable responses : float array; (* all samples, grown geometrically *)
  mutable n_responses : int;
  mutable last_client_done : float;
  (* Availability timeline: commits / aborts per [bucket_ms] of simulated
     time, grown on demand. *)
  mutable tl_commits : int array;
  mutable tl_aborts : int array;
  mutable tl_len : int;
}

let bucket_ms = 100.0

let create () =
  {
    responses = [||];
    n_responses = 0;
    last_client_done = 0.0;
    tl_commits = [||];
    tl_aborts = [||];
    tl_len = 0;
  }

let bucket_of t at =
  let b = int_of_float (at /. bucket_ms) in
  let b = max 0 b in
  if b >= Array.length t.tl_commits then begin
    let ncap = max 64 (max (b + 1) (2 * Array.length t.tl_commits)) in
    let grow a =
      let g = Array.make ncap 0 in
      Array.blit a 0 g 0 (Array.length a);
      g
    in
    t.tl_commits <- grow t.tl_commits;
    t.tl_aborts <- grow t.tl_aborts
  end;
  if b + 1 > t.tl_len then t.tl_len <- b + 1;
  b

let commit t ~at ~response =
  if t.n_responses = Array.length t.responses then begin
    let ncap = max 256 (2 * Array.length t.responses) in
    let grown = Array.make ncap 0.0 in
    Array.blit t.responses 0 grown 0 t.n_responses;
    t.responses <- grown
  end;
  t.responses.(t.n_responses) <- response;
  t.n_responses <- t.n_responses + 1;
  let b = bucket_of t at in
  t.tl_commits.(b) <- t.tl_commits.(b) + 1

let abort t ~at =
  let b = bucket_of t at in
  t.tl_aborts.(b) <- t.tl_aborts.(b) + 1

let client_done t ~time = if time > t.last_client_done then t.last_client_done <- time

let abort_counter_name reason = "abort." ^ Txn.string_of_abort reason

type site_summary = { site : int; s_commits : int; s_aborts : int; s_avg_response : float }

type summary = {
  commits : int;
  aborts : int;
  abort_rate : float;
  aborts_by_reason : (Txn.abort_reason * int) list;
  duration : float;
  throughput : float;
  throughput_per_site : float;
  avg_response : float;
  p50_response : float;
  p95_response : float;
  p99_response : float;
  avg_propagation : float;
  n_propagations : int;
  messages : int;
  per_site : site_summary list;
  timeline : (float * int * int) list;
  unavail_ms : float;
  unavail_windows : int;
  stale_reads : int;
  max_staleness : float;
  avg_staleness : float;
}

(* Buckets that saw aborts but no commits are "unavailable"; consecutive ones
   merge into windows. Leading/trailing empty buckets don't count — silence
   is idleness, not unavailability. *)
let unavailability t =
  let ms = ref 0.0 and windows = ref 0 and in_window = ref false in
  for b = 0 to t.tl_len - 1 do
    if t.tl_aborts.(b) > 0 && t.tl_commits.(b) = 0 then begin
      ms := !ms +. bucket_ms;
      if not !in_window then incr windows;
      in_window := true
    end
    else if t.tl_commits.(b) > 0 then in_window := false
  done;
  (!ms, !windows)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(Stats.rank ~n q - 1)

let summarize (t : t) stats =
  let n_sites = Stats.n_sites stats in
  let total = Stats.total stats in
  let at_site name site =
    Option.fold ~none:0 ~some:(Stats.counter_value ~site) (Stats.find_counter stats name)
  in
  (* A histogram nobody registered reads as empty. *)
  let hist name f = Option.fold ~none:0.0 ~some:f (Stats.find_histogram stats name) in
  let count name =
    Option.fold ~none:0 ~some:(Stats.histogram_count ~site:(-1)) (Stats.find_histogram stats name)
  in
  let commits = total "txn.commit" and aborts = total "txn.abort" in
  let attempts = commits + aborts in
  let duration = t.last_client_done in
  let seconds = duration /. 1000.0 in
  let throughput = if seconds > 0.0 then float_of_int commits /. seconds else 0.0 in
  let sorted = Array.sub t.responses 0 t.n_responses in
  Array.sort compare sorted;
  let unavail_ms, unavail_windows = unavailability t in
  {
    commits;
    aborts;
    abort_rate = (if attempts = 0 then 0.0 else 100.0 *. float_of_int aborts /. float_of_int attempts);
    aborts_by_reason =
      List.filter_map
        (fun r -> match total (abort_counter_name r) with 0 -> None | n -> Some (r, n))
        Txn.all_abort_reasons;
    duration;
    throughput;
    throughput_per_site = throughput /. float_of_int n_sites;
    avg_response = hist "response" (Stats.histogram_mean ~site:(-1));
    p50_response = percentile sorted 0.5;
    p95_response = percentile sorted 0.95;
    p99_response = percentile sorted 0.99;
    avg_propagation = hist "prop.delay" (Stats.histogram_mean ~site:(-1));
    n_propagations = count "prop.delay";
    messages = total "msg.sent";
    timeline =
      List.init t.tl_len (fun b ->
          (float_of_int b *. bucket_ms, t.tl_commits.(b), t.tl_aborts.(b)));
    unavail_ms;
    unavail_windows;
    stale_reads = count "read.stale";
    max_staleness = hist "read.stale" (Stats.histogram_max ~site:(-1));
    avg_staleness = hist "read.stale" (Stats.histogram_mean ~site:(-1));
    per_site =
      List.init n_sites (fun site ->
          {
            site;
            s_commits = at_site "txn.commit" site;
            s_aborts = at_site "txn.abort" site;
            s_avg_response = hist "response" (Stats.histogram_mean ~site);
          });
  }

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>abort reasons: %a@ commits=%d aborts=%d (%.2f%%) duration=%.0fms@ \
     throughput=%.2f txn/s (%.2f per site)@ \
     response avg=%.1fms p50=%.1fms p95=%.1fms p99=%.1fms@ avg propagation=%.1fms (%d) messages=%d"
    (Fmt.list ~sep:Fmt.sp (fun ppf (r, n) -> Fmt.pf ppf "%s=%d" (Txn.string_of_abort r) n))
    s.aborts_by_reason s.commits s.aborts s.abort_rate s.duration s.throughput
    s.throughput_per_site s.avg_response s.p50_response s.p95_response s.p99_response
    s.avg_propagation s.n_propagations s.messages;
  if s.unavail_windows > 0 then
    Fmt.pf ppf "@ unavailability: %.0fms over %d window%s" s.unavail_ms s.unavail_windows
      (if s.unavail_windows = 1 then "" else "s");
  if s.stale_reads > 0 then
    Fmt.pf ppf "@ stale reads=%d staleness avg=%.1fms max=%.1fms" s.stale_reads s.avg_staleness
      s.max_staleness;
  Fmt.pf ppf "@]"

let pp_per_site ppf s =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf r ->
         Fmt.pf ppf "site %-3d commits=%-6d aborts=%-6d avg response=%.1fms" r.site r.s_commits
           r.s_aborts r.s_avg_response))
    s.per_site
