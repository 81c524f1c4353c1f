(* Per-destination update coalescer for the lazy propagation paths.

   Lazy protocols stream many independent updates along the same copy-graph
   edge; at one network message (and one delivery event) per update, the
   event heap is dominated by propagation traffic. The batcher parks updates
   in a per-(src, dst) queue and ships them as one message carrying the
   whole run, flushing when the queue reaches [size] or when the linger
   timer expires. Per-pair channel order is preserved: a queue is FIFO, a
   flush ships it intact, and [push_now] (for barrier-like control messages
   that must not be reordered with parked updates) flushes the pair before
   sending.

   [size <= 1] short-circuits every push into an immediate singleton ship —
   the exact pre-batching behavior, with no queue traffic and no timer
   events, so default runs stay byte-identical to the unbatched kernel. *)

module Sim = Repdb_sim.Sim

type 'a t = {
  sim : Sim.t;
  size : int;
  linger : float;
  ship : src:int -> dst:int -> 'a list -> unit;
  pending : 'a Queue.t array array;
  armed : bool array array;
      (* A linger timer is outstanding for the pair. One timer at a time:
         re-arming on every push would add an event per update and defeat
         the point; a timer that fires over a queue refilled since its
         arming just flushes it a little early, which keeps the linger an
         upper bound on parking time. *)
  cat : int; (* profiler category for linger flush events *)
}

let create ~sim ~n_sites ~size ~linger_ms ~ship () =
  if n_sites < 1 then invalid_arg "Batcher.create: need at least one site";
  if size < 1 then invalid_arg "Batcher.create: size must be >= 1";
  if linger_ms < 0.0 || not (Float.is_finite linger_ms) then
    invalid_arg "Batcher.create: linger must be >= 0 and finite";
  {
    sim;
    size;
    linger = linger_ms;
    ship;
    pending = Array.init n_sites (fun _ -> Array.init n_sites (fun _ -> Queue.create ()));
    armed = Array.init n_sites (fun _ -> Array.make n_sites false);
    cat = Repdb_obs.Profile.cat (Sim.profile sim) "net";
  }

let check t v = if v < 0 || v >= Array.length t.armed then invalid_arg "Batcher: site out of range"

let flush t ~src ~dst =
  check t src;
  check t dst;
  let q = t.pending.(src).(dst) in
  if not (Queue.is_empty q) then begin
    let batch = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    t.ship ~src ~dst batch
  end

let push t ~src ~dst x =
  check t src;
  check t dst;
  if t.size <= 1 then t.ship ~src ~dst [ x ]
  else begin
    let q = t.pending.(src).(dst) in
    Queue.add x q;
    if Queue.length q >= t.size then flush t ~src ~dst
    else if not t.armed.(src).(dst) then begin
      t.armed.(src).(dst) <- true;
      (* linger = 0 still goes through an event: it fires at the current
         instant (after the event cascade that parked the update), so
         same-instant pushes coalesce and delivery times are unchanged. *)
      Sim.after ~cat:t.cat t.sim t.linger (fun () ->
          t.armed.(src).(dst) <- false;
          flush t ~src ~dst)
    end
  end

let push_now t ~src ~dst x =
  check t src;
  check t dst;
  if t.size <= 1 then t.ship ~src ~dst [ x ]
  else begin
    flush t ~src ~dst;
    t.ship ~src ~dst [ x ]
  end

let flush_all t =
  let n = Array.length t.armed in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      flush t ~src ~dst
    done
  done

let pending t ~src ~dst =
  check t src;
  check t dst;
  Queue.length t.pending.(src).(dst)
