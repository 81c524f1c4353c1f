(** The propagation path every replicating protocol shares.

    Send half: destinations, one outstanding token per message (quiescence
    and the reconfiguration drain wait for it), the send, then
    [n * cpu_msg]. Receive half: epoch fence, [cpu_msg], the locally
    replicated items, the apply, the propagation record, forwarding and the
    token's release. A protocol keeps only what orders its secondaries. *)

(** {1 Send half} *)

(** [destinations c ~site writes] — every other site holding a replica of a
    written item, in the historical fan-out order (a 16-bucket hash table
    filled in write order). *)
val destinations : Cluster.t -> site:int -> int list -> int list

(** [ship c dsts send] — take a token and [send] to each destination in
    order; returns the number sent. Does not block. *)
val ship : Cluster.t -> int list -> (int -> unit) -> int

(** [charge c ~site n] — charge [n * cpu_msg] at [site] (blocking). *)
val charge : Cluster.t -> site:int -> int -> unit

(** [fan_out c ~site writes send] — {!ship} to {!destinations}, then
    {!charge}: direct lazy propagation from the primary. *)
val fan_out : Cluster.t -> site:int -> int list -> (int -> unit) -> unit

(** {1 Receive half} *)

(** [dequeued c ~site ~gid] — trace a secondary's receipt (its dequeue in
    the protocol's delivery order). *)
val dequeued : Cluster.t -> site:int -> gid:int -> unit

(** [accept c ~site ?epoch ()] — the epoch fence: drop a message routed
    under an earlier epoch ({!Cluster.stale_epoch}), release its token and
    return [false]; otherwise charge [cpu_msg] and return [true]. *)
val accept : Cluster.t -> site:int -> ?epoch:int -> unit -> bool

(** [applied c ~gid ~site ~origin_commit] — record that [site] applied
    [gid]'s update now: delay histogram, lag bookkeeping, trace. *)
val applied : Cluster.t -> gid:int -> site:int -> origin_commit:float -> unit

(** [receive c ~site ~gid ~origin_commit writes] — apply one propagated
    update: {!accept}; trace [Secondary_recv] if [trace_recv]; apply the
    written items replicated here as a locked secondary
    ({!Exec.apply_secondary}) or with the protocol's lock-free [install];
    then atomically {!applied}, [forward] (returns its message count) and
    release the token; finally {!charge} for the forwarded messages. *)
val receive :
  Cluster.t ->
  site:int ->
  ?epoch:int ->
  ?trace_recv:bool ->
  ?on_retry:(int list -> unit) ->
  ?install:(int list -> unit) ->
  gid:int ->
  origin_commit:float ->
  ?forward:(unit -> int) ->
  int list ->
  unit
