type t = {
  cap : int;
  mutable free : int;
  waiters : (unit -> unit) Queue.t;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  { cap = capacity; free = capacity; waiters = Queue.create () }

let acquire t =
  if t.free > 0 then t.free <- t.free - 1
  else Sim.suspend (fun resume -> Queue.add (fun () -> resume ()) t.waiters)

let release t =
  match Queue.take_opt t.waiters with
  | Some wake -> wake ()
  | None ->
      if t.free >= t.cap then invalid_arg "Resource.release: not held";
      t.free <- t.free + 1

let use t d =
  acquire t;
  Sim.delay d;
  release t
