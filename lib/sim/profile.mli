(** Simulator trace profiling: a timeline of every cost-model charge in
    a run, exportable as Chrome-trace JSON (chrome://tracing, Perfetto)
    through {!trace_spans} and [Sycl_obs.Trace.to_json],
    plus per-kernel profiles aggregated from the same events.

    Time convention: 1 simulated cycle = 1 us of trace time, so cycle
    counts read directly off the trace viewer. *)

type event = {
  ev_name : string;
  ev_cat : string;
      (** "submit" | "transfer" | "jit" | "launch" | "kernel" *)
  ev_ts : int;  (** start, in simulated cycles *)
  ev_dur : int;  (** duration, in simulated cycles *)
  ev_args : (string * int) list;
}

(** A per-launch recording segment: timestamps are relative to the
    segment start. Record a launch's charges into a private segment and
    {!commit} it, so interleaved launches (nested runs, parallel worker
    domains) cannot corrupt each other's timeline. *)
type segment

val segment : unit -> segment

(** Append an event at the segment's current relative clock and advance
    it by [dur]. Zero-duration charges are dropped. *)
val record_seg :
  segment ->
  cat:string ->
  name:string ->
  ?args:(string * int) list ->
  dur:int ->
  unit ->
  unit

(** Records committed segments on a single simulated timeline: each
    commit starts at the current clock and advances it (the host
    runtime is in-order). Thread-safe. *)
type recorder

val recorder : unit -> recorder

(** Atomically shift the segment onto the recorder clock, append its
    events, and advance the clock by the segment's span. *)
val commit : recorder -> segment -> unit

(** One-shot convenience: a single event committed immediately. *)
val record :
  recorder ->
  cat:string ->
  name:string ->
  ?args:(string * int) list ->
  dur:int ->
  unit ->
  unit

(** Recorded events, oldest first. *)
val events : recorder -> event list

(** Cycle breakdown of a launch — the args payload of a kernel event:
    compute/memory/barrier cycles, transaction and work-item counts,
    [total_wg_cycles], [max_wg_cycles], [num_cu]. *)
val breakdown : Cost.params -> Cost.launch_stats -> (string * int) list

type kernel_profile = {
  kp_name : string;
  kp_launches : int;
  kp_launch_cycles : int;  (** host-side launch overhead *)
  kp_device_cycles : int;
      (** device wall time (work-groups spread over CUs) *)
  kp_compute_cycles : int;
  kp_memory_cycles : int;
  kp_barrier_cycles : int;
  kp_global_transactions : int;
  kp_local_transactions : int;
  kp_const_transactions : int;
  kp_work_items : int;
  kp_occupancy : float;
      (** total work-group cycles / (num_cu * device wall cycles),
          clamped to 1 *)
}

(** Aggregate per-kernel profiles from a run's events: cat ["kernel"]
    events carry the {!breakdown} payload; cat ["launch"] events share
    the kernel's name and contribute [kp_launch_cycles]. Ordered by
    first launch. *)
val of_events : event list -> kernel_profile list

val pp_table : Format.formatter -> kernel_profile list -> unit

(** Simulator events as unified-telemetry trace spans, shifted by [base]
    microseconds: cat ["kernel"] events land on the device lane, all
    other charges on the host-runtime lane. *)
val trace_spans : ?base:int -> event list -> Sycl_obs.Trace.span list

(** The whole trace file for [events]: {!trace_spans} as a
    [Sycl_obs.Trace.to_json] document, newline-terminated. *)
val trace_document : event list -> string
