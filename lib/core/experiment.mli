(** Experiment harness: one table ({!registry}) with an entry per
    table/figure of the paper's evaluation (Section 5), plus the extra sweeps
    implied by the ranges of Table 1, our own ablations and the robustness
    extensions. Each entry is data: a parameter sweep over some protocols, or
    a list of labelled runs. {!run} executes any entry; the CLI, the bench
    executables and the tests all go through it.

    With [?pool], the independent [Driver.run]s (one per protocol x swept
    value, or one per job) execute on its domains. Results are placed by
    input index and each run owns all of its mutable state, so parallel
    output is bit-identical to the sequential path (there is a test). *)

module Params = Repdb_workload.Params

type point = {
  x : float;  (** The swept parameter value. *)
  reports : (string * Driver.report) list;  (** protocol name -> report. *)
}

type figure = {
  id : string;  (** e.g. "fig2a". *)
  title : string;
  xlabel : string;
  points : point list;
}

(** One run of a {!Runs} experiment. *)
type job = {
  label : string;  (** The report's label, e.g. a protocol name. *)
  params : Params.t;
  protocol : Protocol.t;
  placement : Repdb_workload.Placement.t option;
      (** A fixed placement shared read-only by the run instead of the
          generated one. *)
}

type kind =
  | Sweep of {
      xlabel : string;
      protocols : Protocol.t list;
      values : steps:int -> float list;
          (** The swept values; probability axes take [steps + 1] evenly
              spaced points in [0, 1], the others ignore [steps]. *)
      at : Params.t -> float -> Params.t;
          (** [at base x] — one run's parameters, built inside its task. *)
    }  (** Every protocol at every swept value: a figure. *)
  | Runs of (Params.t -> job list)
      (** A flat list of labelled runs, printed as full reports. *)

type entry = {
  exp_id : string;  (** The CLI and bench name, e.g. "fig2a". *)
  title : string;  (** The figure title and the one-line help text. *)
  kind : kind;
}

(** What an experiment produces: a swept figure, or a flat list of labelled
    reports. *)
type outcome = Figure of figure | Reports of (string * Driver.report) list

(** Every experiment, in presentation order: the paper's Figures 2(a)-3(b)
    and Section 5.3.4, the Table 1 range sweeps, ablations and the
    robustness extensions. This is the only list of experiments; the CLI,
    the bench executables and the tests all dispatch through it. *)
val registry : entry list

val ids : string list
val find : string -> entry option

(** [run entry] runs every job of [entry] over [base] (default
    {!Params.default}); [steps] (default 10) sets the resolution of
    probability axes. Tasks are row-major (point x protocol) and each one
    owns its whole simulator, so the outcome is the same with or without
    [?pool]. *)
val run : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> ?steps:int -> entry -> outcome

(** [figure id] — [run] on the sweep named [id], returning its figure.
    @raise Invalid_argument if [id] is not a registered sweep. *)
val figure : ?pool:Repdb_par.Pool.t -> ?base:Params.t -> ?steps:int -> string -> figure

(** [timeline_files outcome] — every run timeline the outcome collected
    (present when the base parameters had [timeline_every > 0]), paired with
    a filesystem-safe basename ([<figure>_x<value>_<protocol>] for figures,
    the report label for flat report lists). The CLI writes each as
    [<basename>.csv] under [--timeline-dir]. *)
val timeline_files : outcome -> (string * Repdb_obs.Timeline.t) list

(** {1 Rendering} *)

val pp_figure : Format.formatter -> figure -> unit
val pp_reports : Format.formatter -> (string * Driver.report) list -> unit

(** CSV text (one line per point and protocol:
    [figure,x,protocol,throughput_per_site,abort_rate,avg_response,p99_response,avg_propagation,messages,reconfigs,state_transfers,reconfig_stall_ms,<aborts_* columns>,stale_reads,max_staleness_ms,unavail_ms,mttr_ms,failovers,repaired_items]
    where the [aborts_*] block has one count column per
    {!Repdb_txn.Txn.abort_reason} constructor in
    [Txn.all_abort_reasons] order, e.g. [aborts_lock_timeout] ...
    [aborts_dangerous_structure]). *)
val to_csv : figure -> string

(** [outcome_to_csv entry outcome] — {!to_csv} for any outcome of [entry]:
    a {!Reports} outcome renders one row per label, with [figure] = the
    entry's id, [x] = 0 and [protocol] = the label. *)
val outcome_to_csv : entry -> outcome -> string

(** ASCII plot of per-site throughput against the swept parameter, one glyph
    per protocol — a terminal rendition of the paper's figures. *)
val render_ascii : figure -> string
