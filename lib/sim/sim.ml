module Profile = Repdb_obs.Profile

type t = {
  clock : float array;
      (* One-element flat float array: a [mutable clock : float] field in a
         mixed record is boxed, so every clock advance would allocate. *)
  mutable seq : int;
  mutable executed : int;
  events : (unit -> unit) Heap.t;
  profile : Profile.t;
}

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

exception Stuck of exn

let create ?(profile = Profile.disabled) () =
  { clock = [| 0.0 |]; seq = 0; executed = 0; events = Heap.create (); profile }

let now t = t.clock.(0)
let clock t () = t.clock.(0)
let events_executed t = t.executed
let profile t = t.profile

(* When profiling, every scheduled closure is wrapped so its execution time
   and allocation are charged to a category: the caller's explicit [?cat],
   or — for the implicit re-schedules a process performs on its own behalf
   (delays, suspends) — the category current at schedule time, which is the
   scheduling process's own. Disabled profiling costs one branch here. *)
let schedule ?cat t time fn =
  t.seq <- t.seq + 1;
  let fn =
    if Profile.on t.profile then
      let cat = match cat with Some c -> c | None -> Profile.current t.profile in
      Profile.wrap t.profile ~cat fn
    else fn
  in
  Heap.push t.events ~time ~seq:t.seq fn

let at ?cat t time fn =
  if time < t.clock.(0) then invalid_arg "Sim.at: time is in the past";
  schedule ?cat t time fn

let after ?cat t d fn =
  if d < 0.0 then invalid_arg "Sim.after: negative delay";
  schedule ?cat t (t.clock.(0) +. d) fn

(* Run [f] as a process: effects [Delay] and [Suspend] park the computation
   and re-enter through the event heap. The handler is installed deeply, so
   resumed continuations keep it. *)
let run_process t f =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          Printexc.raise_with_backtrace (Stuck e) bt);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if d < 0.0 then
                    discontinue k (Invalid_argument "Sim.delay: negative delay")
                  else schedule t (t.clock.(0) +. d) (fun () -> continue k ()))
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resumed = ref false in
                  (* The resumer may run under a different category (e.g. a
                     network delivery waking a client), so pin the
                     continuation to the suspending process's own. *)
                  let cat =
                    if Profile.on t.profile then Some (Profile.current t.profile) else None
                  in
                  let resume v =
                    if not !resumed then begin
                      resumed := true;
                      schedule ?cat t t.clock.(0) (fun () -> continue k v)
                    end
                  in
                  register resume)
          | _ -> None);
    }

let spawn ?cat t f = schedule ?cat t t.clock.(0) (fun () -> run_process t f)

let step t =
  if Heap.is_empty t.events then invalid_arg "Sim.step: no scheduled events";
  t.clock.(0) <- Heap.top_time t.events;
  t.executed <- t.executed + 1;
  (Heap.pop_top t.events) ()

let run t =
  while not (Heap.is_empty t.events) do
    t.clock.(0) <- Heap.top_time t.events;
    t.executed <- t.executed + 1;
    (Heap.pop_top t.events) ()
  done

let run_until t horizon =
  let events = t.events in
  while (not (Heap.is_empty events)) && Heap.top_time events <= horizon do
    t.clock.(0) <- Heap.top_time events;
    t.executed <- t.executed + 1;
    (Heap.pop_top events) ()
  done;
  if t.clock.(0) < horizon then t.clock.(0) <- horizon

let delay d = Effect.perform (Delay d)
let suspend register = Effect.perform (Suspend register)
