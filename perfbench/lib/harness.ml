(* The measurement loop shared by every workload: repeated set-up, whole
   passes of timed ops until the time budget is spent, the reference loop
   interleaved with the ops, output checks outside the timed region, and
   the end-to-end metrics derived from the pass samples. *)

(* One timed unit. [run] is timed and returns the check, which runs
   untimed; an exception from either, or a [false] check, fails the op. *)
type op = {
  cls : string;  (** latency class: "run", "miss" or "hit" *)
  run : unit -> unit -> bool;
}

type workload = {
  setup : unit -> unit;
      (** builds everything the passes need; timed, and repeated *)
  prepare_pass : traced:bool -> op array;
      (** untimed per-pass preparation (fresh services, op order) *)
  finish_pass : unit -> unit;  (** untimed; may add pass counters *)
}

type lat = {
  cls_ : string;
  ms : float;
  adj_ref_ms : float;  (** mean of the reference samples bracketing the op *)
}

type pass_sample = {
  traced : bool;
  wall_ms : float;  (** sum of the timed op durations *)
  ref_ms : float;  (** mean reference-loop time within this pass *)
  lat : lat array;  (** per op, in op order *)
  minor_mb : float;  (** allocated on the minor heap by the timed ops, MB *)
  major_collections : int;
  counters : (string * float) list;  (** layer counters added during the pass *)
  self_times : (string * int * float * float) list;
      (** (span name, count, total ms, self ms) of the pass's spans *)
  op_self_times : (string * int * float * float) list;  (** the same, inside ops only *)
  n_ops : int;
  n_failed : int;
}

(* One block of set-ups; every figure is per set-up. *)
type setup_sample = {
  setup_s : float;  (** raw seconds *)
  setup_ref_ms : float;  (** mean of the reference samples bracketing the block *)
  setup_counters : (string * float) list;  (** layer counters added *)
}

type result = {
  setups : setup_sample list;
  passes : pass_sample list;
  spans : Spans.span list;
      (** the spans of the set-ups and the first traced passes, for export *)
  peak_rss_mb : float;
}

(* Layer counters: workloads add to them during set-up and passes; the
   harness snapshots and clears them at each boundary. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let take_counters () =
  let l =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Hashtbl.reset counters;
  l

let counter name (l : (string * float) list) =
  Option.value ~default:0.0 (List.assoc_opt name l)

(* When tracing, time [f] into a span and into counter [name] (ms);
   otherwise just call it. *)
let timed name f =
  if not !Spans.enabled then f ()
  else begin
    let t0 = Measure.now_ns () in
    let r = Spans.with_span name f in
    count name (Measure.ms_between t0 (Measure.now_ns ()));
    r
  end

(* A reference-loop sample is taken at the start and end of each pass
   and after any op that ends at least this long after the previous
   sample, so long ops are bracketed one by one and short ones share a
   bracket. Each op is normalised by the mean of the two samples that
   bracket it: a slow spell that slowed the op slowed them too. *)
let ref_interval_ms = 250.0

let run_pass ~traced (w : workload) ~first_op_id =
  let ops = w.prepare_pass ~traced in
  ignore (take_counters ());
  Spans.enabled := traced;
  let n = Array.length ops in
  let ms = Array.make n 0.0 and adj = Array.make n 0.0 in
  let refs = ref [] and last_ref = ref 0L in
  (* Samples the reference loop and closes the bracket of ops [lo, hi). *)
  let sample lo hi =
    let r = Measure.time_ref_loop () in
    (match !refs with
    | prev :: _ -> for i = lo to hi - 1 do adj.(i) <- (prev +. r) /. 2.0 done
    | [] -> ());
    refs := r :: !refs;
    last_ref := Measure.now_ns ()
  in
  sample 0 0;
  let bracket_start = ref 0 and wall = ref 0.0 and failed = ref 0 in
  let alloc = ref 0.0 and majors = ref 0 in
  Array.iteri
    (fun i op ->
      Spans.current_op := first_op_id + i;
      let g0 = (Gc.quick_stat ()).Gc.major_collections in
      let a0 = Gc.minor_words () in
      let t0 = Measure.now_ns () in
      let check =
        try Some (Spans.with_span "op" op.run) with _ -> None
      in
      let t1 = Measure.now_ns () in
      alloc := !alloc +. (Gc.minor_words () -. a0);
      majors := !majors + ((Gc.quick_stat ()).Gc.major_collections - g0);
      Spans.current_op := -1;
      ms.(i) <- Measure.ms_between t0 t1;
      wall := !wall +. ms.(i);
      let ok = match check with Some c -> (try c () with _ -> false) | None -> false in
      if not ok then incr failed;
      if i = n - 1 || Measure.ms_between !last_ref (Measure.now_ns ()) >= ref_interval_ms
      then begin
        sample !bracket_start (i + 1);
        bracket_start := i + 1
      end)
    ops;
  w.finish_pass ();
  Spans.enabled := false;
  let spans = Spans.take () in
  ( {
      traced;
      wall_ms = !wall;
      ref_ms = Measure.mean !refs;
      lat = Array.init n (fun i -> { cls_ = ops.(i).cls; ms = ms.(i); adj_ref_ms = adj.(i) });
      minor_mb = !alloc *. 8.0 /. 1e6;
      major_collections = !majors;
      counters = take_counters ();
      self_times = Spans.self_times spans;
      op_self_times = Spans.self_times (List.filter (fun s -> s.Spans.op >= 0) spans);
      n_ops = Array.length ops;
      n_failed = !failed;
    },
    spans )

(* A traced compile-service pass records some 10^4 spans; the export
   keeps the first few traced passes, while self times cover all. *)
let export_traced_passes = 3

(* Set-up is timed in [setup_blocks] blocks of [setups_per_block]
   back-to-back set-ups, each block bracketed by its own reference-loop
   samples. One set-up lasts about 10 ms, short enough for a timer
   interrupt or a neighbour's burst to move it by a quarter; a block
   spreads that noise over its set-ups. The passes measure the state of
   the last set-up. *)
let setup_blocks = 3
let setups_per_block = 5

let setup_block ~trace (w : workload) =
  let per_setup v = v /. float_of_int setups_per_block in
  ignore (take_counters ());
  Gc.compact ();
  let r0 = Measure.time_ref_loop () in
  Spans.enabled := trace;
  let t0 = Measure.now_ns () in
  for _ = 1 to setups_per_block do w.setup () done;
  let s = per_setup (Measure.ms_between t0 (Measure.now_ns ()) /. 1e3) in
  Spans.enabled := false;
  let r1 = Measure.time_ref_loop () in
  let counters = List.map (fun (n, v) -> (n, per_setup v)) (take_counters ()) in
  ( { setup_s = s; setup_ref_ms = (r0 +. r1) /. 2.0; setup_counters = counters },
    Spans.take () )

let setup ~trace (w : workload) =
  let blocks = List.init setup_blocks (fun _ -> setup_block ~trace w) in
  (List.map fst blocks, List.concat_map snd blocks)

(* [between] is called, untimed, between two passes once at least this
   long has passed since the start or since its last call. *)
let between_interval_ms = 5000.0

(* Set up, then run whole passes until [seconds] are spent: untraced
   passes only, or untraced and traced passes alternating when [trace].
   At least one pass of each kind runs. *)
let run ?(between = ignore) ~seconds ~trace (w : workload) : result =
  let setups, setup_spans = setup ~trace w in
  let all_spans = ref (List.rev setup_spans) in
  let start = Measure.now_ns () in
  let elapsed_ms () = Measure.ms_between start (Measure.now_ns ()) in
  let last_dur = Hashtbl.create 2 and last_between = ref 0.0 in
  let rec loop acc next_id k =
    let traced = trace && k mod 2 = 1 in
    let must = k < (if trace then 2 else 1) in
    let est =
      Option.value ~default:0.0 (Hashtbl.find_opt last_dur traced)
    in
    (* Start another pass if it is expected to end no later than half
       a pass past the budget, so runs use the budget evenly. *)
    if (not must) && elapsed_ms () +. (est /. 2.0) > seconds *. 1e3 then List.rev acc
    else begin
      if k > 0 && elapsed_ms () -. !last_between >= between_interval_ms then begin
        between ();
        last_between := elapsed_ms ()
      end;
      let t0 = elapsed_ms () in
      let p, spans = run_pass ~traced w ~first_op_id:next_id in
      Hashtbl.replace last_dur traced (elapsed_ms () -. t0);
      if p.traced && k < 2 * export_traced_passes then
        all_spans := List.rev_append spans !all_spans;
      loop (p :: acc) (next_id + p.n_ops) (k + 1)
    end
  in
  let passes = loop [] 0 0 in
  { setups; passes; spans = List.rev !all_spans; peak_rss_mb = Measure.peak_rss_mb () }

let untraced r = List.filter (fun p -> not p.traced) r.passes
let traced r = List.filter (fun p -> p.traced) r.passes

let attempted r = List.fold_left (fun a p -> a + p.n_ops) 0 r.passes
let failed r = List.fold_left (fun a p -> a + p.n_failed) 0 r.passes

(* A pass's time in reference units: each op over its own bracket. *)
let pass_ref (p : pass_sample) =
  Array.fold_left (fun a l -> a +. (l.ms /. l.adj_ref_ms)) 0.0 p.lat

(* A pass's typical op in reference units: the geometric mean over its
   ops, so each program (or request) weighs the same however long it
   runs. Medians and percentiles over a handful of distinct programs
   fall between two programs and jump with their order. *)
let op_geo_ref (p : pass_sample) =
  Measure.geomean (Array.to_list (Array.map (fun l -> l.ms /. l.adj_ref_ms) p.lat))

(* Latencies of one class, each in reference units or in ms. *)
let lat_ref ~cls passes =
  List.concat_map
    (fun p ->
      Array.to_list p.lat
      |> List.filter_map (fun l -> if l.cls_ = cls then Some (l.ms /. l.adj_ref_ms) else None))
    passes

let lat_ms ~cls passes =
  List.concat_map
    (fun p ->
      Array.to_list p.lat
      |> List.filter_map (fun l -> if l.cls_ = cls then Some l.ms else None))
    passes

(* A set-up's time in seconds at nominal host speed: its reference
   units times the reference loop's nominal duration. *)
let setup_nominal_s (s : setup_sample) =
  s.setup_s *. Measure.nominal_ref_ms /. s.setup_ref_ms

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* A process's set-up time: the median over its blocks. *)
let process_setup_s (setups : setup_sample list) =
  Measure.median (List.map setup_nominal_s setups)

(* The end-to-end metrics, from the untraced passes; [setup_s] comes
   from the caller, who may have set up in other processes too. *)
let end_to_end ~setup_s (r : result) : metric list =
  let u = untraced r in
  [
    m "setup_s" "s" setup_s;
    m "pass_ref" "ref" (Measure.median (List.map pass_ref u));
    m "op_geo_ref" "ref" (Measure.median (List.map op_geo_ref u));
    m "peak_rss_mb" "MB" r.peak_rss_mb;
    m "ok_ratio" "ratio"
      (1.0 -. (float_of_int (failed r) /. float_of_int (max 1 (attempted r))));
  ]

(* Layer metrics every workload reports: OCaml runtime, host audit and
   tracing cost. Per-pass figures are medians over passes. *)
let common_layers (r : result) : metric list =
  let u = untraced r and t = traced r in
  let med f ps = Measure.median (List.map f ps) in
  let ops_traced = List.fold_left (fun a p -> a + p.n_ops) 0 t in
  let remainder =
    List.fold_left
      (fun a p ->
        a +. List.fold_left (fun a (n, _, _, self) -> if n = "op" then a +. self else a) 0.0 p.self_times)
      0.0 t
  in
  [
    m "gc.minor_mb" "MB" (med (fun p -> p.minor_mb) u);
    m "gc.major_collections" "count" (med (fun p -> float_of_int p.major_collections) u);
    m "host.ref_ms" "ms" (med (fun p -> p.ref_ms) u);
    m "host.pass_wall_s" "s" (med (fun p -> p.wall_ms /. 1e3) u);
    m "trace.overhead_ref" "ref" (med pass_ref t -. med pass_ref u);
    m "trace.remainder_ms" "ms" (remainder /. float_of_int (max 1 ops_traced));
  ]
