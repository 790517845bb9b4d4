(* sycl-bench: run one reproduction workload under a chosen compiler
   configuration, print the simulated cost breakdown and validation —
   the reproduction's counterpart to the SYCL-Bench runner script.

     dune exec bin/sycl_bench.exe -- --list
     dune exec bin/sycl_bench.exe -- --benchmark GEMM --mode sycl-mlir
     dune exec bin/sycl_bench.exe -- --benchmark GEMM --compare --no-internalization *)

open Cmdliner
open Sycl_workloads
module Driver = Sycl_core.Driver

let list_workloads () =
  List.iter
    (fun (w : Common.workload) ->
      Printf.printf "%-26s %-14s size=%d (paper size %d)%s\n" w.Common.w_name
        (Common.category_to_string w.Common.w_category)
        w.Common.w_problem_size w.Common.w_paper_size
        (if w.Common.w_acpp_ok then "" else "  [AdaptiveCpp fails validation]"))
    (Suite.all () @ Suite.extensions ())

let mode_of_string = function
  | "dpcpp" -> Ok Driver.Dpcpp
  | "sycl-mlir" -> Ok Driver.Sycl_mlir
  | "acpp" | "adaptivecpp" -> Ok Driver.Adaptive_cpp
  | s -> Error (`Msg ("unknown mode " ^ s ^ " (dpcpp|sycl-mlir|acpp)"))

(** The cycle breakdown of one run, then each launch's statistics. The
    listed components add up to the total exactly; the one-time JIT
    charge is left out of both, as in [Common.measure]. *)
let print_breakdown (r : Sycl_runtime.Host_interp.run_result) =
  let module H = Sycl_runtime.Host_interp in
  Printf.printf "  total cycles: %d\n" (r.H.total_cycles - r.H.jit_cycles);
  Printf.printf "    device:          %d\n" r.H.device_cycles;
  Printf.printf "    launch overhead: %d (%d launches)\n"
    r.H.launch_overhead_cycles r.H.kernel_launches;
  Printf.printf "    transfers:       %d\n" r.H.transfer_cycles;
  Printf.printf "    scheduler:       %d (%d dependency edges)\n"
    r.H.scheduler_cycles r.H.dependency_edges;
  List.iter
    (fun (name, s) ->
      Format.printf "  kernel %-18s %a@." name Sycl_sim.Cost.pp_launch_stats s)
    r.H.per_kernel

let report (w : Common.workload) (m : Common.measurement) =
  Printf.printf "%s under %s\n" w.Common.w_name (Driver.mode_to_string m.Common.m_mode);
  Printf.printf "  validation: %s\n" (if m.Common.m_valid then "PASSED" else "FAILED");
  print_breakdown m.Common.m_result;
  if Mlir.Pass.Stats.to_list m.Common.m_stats <> [] then begin
    Printf.printf "  compile-time statistics:\n";
    Format.printf "%a@?" Mlir.Pass.Stats.pp m.Common.m_stats
  end

(** Write the run's charge timeline as Chrome-trace JSON (host-runtime
    and device lanes of the unified trace) and print the per-kernel
    profile table derived from the same events. *)
let write_profile (m : Common.measurement) path =
  let events = m.Common.m_result.Sycl_runtime.Host_interp.events in
  (try
     Out_channel.with_open_text path (fun oc ->
         output_string oc (Sycl_sim.Profile.trace_document events))
   with Sys_error msg ->
     Printf.eprintf "error: cannot write trace: %s\n" msg;
     exit 1);
  Printf.printf "\nkernel profile (trace written to %s):\n" path;
  Format.printf "%a@?" Sycl_sim.Profile.pp_table
    (Sycl_sim.Profile.of_events events)

(** Write the merged compile + runtime + device trace: compile-phase
    spans from the pass-timing tree on the compile lane, then the run's
    charge timeline (shifted past them) on the host-runtime and device
    lanes — one chrome://tracing load shows parse -> passes -> queue ops
    -> kernel cycles. Under [--annotate] the top hotspot lines ride
    along as Chrome counter events on the device lane. *)
let write_trace ?attribution (m : Common.measurement)
    (tm : Mlir.Instrument.timer) path =
  let module Trace = Sycl_obs.Trace in
  let sink = Trace.global in
  Trace.reset sink;
  Trace.add_timing ~root_name:"compile" sink (Mlir.Instrument.timing_report tm);
  let base = Trace.span_end sink in
  Trace.add_all sink
    (Sycl_sim.Profile.trace_spans ~base
       m.Common.m_result.Sycl_runtime.Host_interp.events);
  (match attribution with
  | Some tab ->
    List.iteri
      (fun i (r : Sycl_sim.Attribution.line_row) ->
        if i < 5 then
          Trace.add_counter sink
            {
              Trace.ct_name = "hotspot " ^ r.Sycl_sim.Attribution.l_line;
              ct_lane = Trace.Device;
              ct_ts = base;
              ct_series = [ ("cycles", r.Sycl_sim.Attribution.l_cycles) ];
            })
      (Sycl_sim.Attribution.by_line tab)
  | None -> ());
  (* Per-kernel cache hit-rate counters (non-flat --cache-model only):
     one [ph:"C"] event per launch on the device lane. *)
  List.iter
    (fun (name, (s : Sycl_sim.Cost.launch_stats)) ->
      if Sycl_sim.Cost.cache_active s then
        Trace.add_counter sink
          {
            Trace.ct_name = "cache " ^ name;
            ct_lane = Trace.Device;
            ct_ts = base;
            ct_series =
              [
                ("hits", s.Sycl_sim.Cost.cache_hits);
                ("misses", s.Sycl_sim.Cost.cache_misses);
                ( "hit_rate_pct",
                  int_of_float
                    (100.0
                    *. Sycl_sim.Cache.hit_rate
                         ~hits:s.Sycl_sim.Cost.cache_hits
                         ~misses:s.Sycl_sim.Cost.cache_misses) );
              ];
          })
    m.Common.m_result.Sycl_runtime.Host_interp.per_kernel;
  try
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Mlir.Json.to_string (Trace.export sink) ^ "\n"));
    Printf.printf "\nmerged trace written to %s\n" path
  with Sys_error msg ->
    Printf.eprintf "error: cannot write trace: %s\n" msg;
    exit 1

(** Write the run's metrics registry (runtime.* counters and the
    launch-latency histogram, sim.* device counters) as JSON. *)
let write_metrics (m : Common.measurement) path =
  let reg = m.Common.m_result.Sycl_runtime.Host_interp.metrics in
  try
    Out_channel.with_open_text path (fun oc ->
        output_string oc
          (Mlir.Json.to_string (Sycl_obs.Metrics.to_json reg) ^ "\n"));
    Printf.printf "metrics written to %s\n" path
  with Sys_error msg ->
    Printf.eprintf "error: cannot write metrics: %s\n" msg;
    exit 1

(** The attribution surfaces: hotspot report on stdout, attribution
    JSON, annotated IR dump. *)
let write_attribution_surfaces ~annotate ~attribution_json ~annotated_ir
    (tab : Sycl_sim.Attribution.table) (module_op : Mlir.Core.op) =
  if annotate then begin
    print_newline ();
    print_string (Sycl_sim.Attribution.hotspots_to_string tab)
  end;
  Option.iter
    (fun path ->
      try
        Out_channel.with_open_text path (fun oc ->
            output_string oc
              (Mlir.Json.to_string (Sycl_sim.Attribution.to_json tab) ^ "\n"));
        Printf.eprintf "attribution written to %s\n" path
      with Sys_error msg ->
        Printf.eprintf "error: cannot write attribution: %s\n" msg;
        exit 1)
    attribution_json;
  Option.iter
    (fun path ->
      Sycl_sim.Attribution.annotate_module tab module_op;
      try
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Mlir.Printer.to_string module_op));
        Printf.eprintf "annotated IR written to %s\n" path
      with Sys_error msg ->
        Printf.eprintf "error: cannot write annotated IR: %s\n" msg;
        exit 1)
    annotated_ir

(** The cache surfaces: rendered hit/miss table under [--annotate], full
    JSON (per-op counters + reuse-distance histogram) via
    [--cache-json]. The flat model collects no table, so both are
    no-ops there — [--cache-json] without a cache model is an error. *)
let write_cache_surfaces ~annotate ~cache_json
    (r : Sycl_runtime.Host_interp.run_result) =
  (match Annotate.check_cache_conservation r with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "error: cache conservation violated: %s\n" msg;
    exit 1);
  match Annotate.merged_cache r with
  | None ->
    if cache_json <> None then begin
      Printf.eprintf
        "error: --cache-json requires a non-flat --cache-model (dm|assoc)\n";
      exit 2
    end
  | Some tab ->
    if annotate then begin
      print_newline ();
      print_string (Sycl_sim.Cache.render tab)
    end;
    Option.iter
      (fun path ->
        try
          (* Prepend the launch-side transaction total so the
             conservation invariant is checkable from this file alone:
             hits + misses = global_transactions, exactly. *)
          let transactions =
            List.fold_left
              (fun acc (_, s) ->
                acc + s.Sycl_sim.Cost.global_transactions)
              0 r.Sycl_runtime.Host_interp.per_kernel
          in
          let json =
            match Sycl_sim.Cache.to_json tab with
            | Mlir.Json.Obj kvs ->
              Mlir.Json.Obj
                (("global_transactions", Mlir.Json.Int transactions) :: kvs)
            | j -> j
          in
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Mlir.Json.to_string json ^ "\n"));
          Printf.eprintf "cache counters written to %s\n" path
        with Sys_error msg ->
          Printf.eprintf "error: cannot write cache counters: %s\n" msg;
          exit 1)
      cache_json

let run_mlir_file cfg ?sim_domains ?check_races ?cache_model ~path ~size
    ~annotate ~attribution_json ~annotated_ir ~cache_json () =
  match
    Annotate.run_file cfg ~size ?sim_domains ?check_races ?cache_model path
  with
  | exception Annotate.File_error msg ->
    Printf.eprintf "error: %s: %s\n" path msg;
    exit 2
  | m, r ->
    Printf.printf "%s (size %d)\n" path size;
    print_breakdown r;
    (match Annotate.check_conservation r with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "error: attribution conservation violated: %s\n" msg;
      exit 1);
    write_attribution_surfaces ~annotate ~attribution_json ~annotated_ir
      (Annotate.merged_attribution r)
      m;
    write_cache_surfaces ~annotate ~cache_json r

let run list_flag bench mode compare no_licm no_reduction no_internalization
    no_hostdev fusion profile_json metrics_json trace_json sim_domains
    check_races cache_model cache_json annotate file_arg size attribution_json
    annotated_ir delta =
  if list_flag then (list_workloads (); exit 0);
  let want_attribution =
    annotate || attribution_json <> None || annotated_ir <> None
  in
  let config mode =
    Driver.config ~enable_licm:(not no_licm)
      ~enable_reduction:(not no_reduction)
      ~enable_internalization:(not no_internalization)
      ~enable_host_device:(not no_hostdev)
      ~enable_alias_refinement:(not no_hostdev) ~enable_fusion:fusion mode
  in
  try
  match file_arg with
  | Some path ->
    run_mlir_file (config mode) ?sim_domains ?check_races ?cache_model ~path
      ~size ~annotate ~attribution_json ~annotated_ir ~cache_json ()
  | None ->
  match bench with
  | None ->
    prerr_endline "missing --benchmark (or use --list)";
    exit 2
  | Some name -> (
    match Suite.find name with
    | None ->
      Printf.eprintf "unknown benchmark %s (try --list)\n" name;
      exit 2
    | Some w ->
      (* The profiling surfaces report per source line, so they run a
         located copy of the workload: printed and re-parsed under a
         virtual file name (semantically identical — see Annotate). *)
      let orig_w = w in
      let w = if want_attribution then Annotate.located_workload w else w in
      let measure ?instrumentations cfg =
        Common.measure ?instrumentations ?sim_domains ?check_races
          ?cache_model cfg w
      in
      if delta then begin
        let ds, _remarks =
          Annotate.delta_report ?sim_domains ?check_races ?cache_model orig_w
        in
        print_string (Sycl_sim.Attribution.delta_to_string ds)
      end
      else if compare then begin
        let base = measure (config Driver.Dpcpp) in
        report w base;
        print_newline ();
        let opt = measure (config Driver.Sycl_mlir) in
        report w opt;
        Printf.printf "\nspeedup SYCL-MLIR over DPC++: %.2fx\n"
          (Common.speedup base opt);
        (match measure (config Driver.Adaptive_cpp) with
        | acpp when acpp.Common.m_valid ->
          Printf.printf "speedup AdaptiveCpp over DPC++: %.2fx\n"
            (Common.speedup base acpp)
        | _ -> print_endline "AdaptiveCpp: failed validation"
        | exception Common.Unsupported _ ->
          print_endline "AdaptiveCpp: unsupported (modeled validation failure)")
      end
      else
        let tm = Mlir.Instrument.timer () in
        let instrumentations =
          if trace_json <> None then [ Mlir.Instrument.timing tm ] else []
        in
        let m = measure ~instrumentations (config mode) in
        report w m;
        let attribution =
          if want_attribution then begin
            let tab =
              Annotate.merged_attribution m.Common.m_result
            in
            (match Annotate.check_conservation m.Common.m_result with
            | Ok () -> ()
            | Error msg ->
              Printf.eprintf "error: attribution conservation violated: %s\n"
                msg;
              exit 1);
            write_attribution_surfaces ~annotate ~attribution_json
              ~annotated_ir tab m.Common.m_module;
            Some tab
          end
          else None
        in
        write_cache_surfaces ~annotate ~cache_json m.Common.m_result;
        Option.iter (write_profile m) profile_json;
        Option.iter (write_trace ?attribution m tm) trace_json;
        Option.iter (write_metrics m) metrics_json;
        if not m.Common.m_valid then exit 1)
  with Sycl_sim.Interp.Race_detected races ->
    Printf.eprintf
      "RACE: %d pair(s) of work-groups wrote overlapping global locations\n"
      (List.length races);
    List.iter
      (fun r -> Printf.eprintf "  %s\n" (Sycl_sim.Interp.describe_race r))
      races;
    exit 1

let list_arg = Arg.(value & flag & info [ "list"; "l" ] ~doc:"List workloads.")

let bench_arg =
  Arg.(value & opt (some string) None
       & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc:"Workload to run.")

let mode_conv =
  Arg.conv
    ( mode_of_string,
      fun fmt m -> Format.pp_print_string fmt (Driver.mode_to_string m) )

let mode_arg =
  Arg.(value & opt mode_conv Driver.Sycl_mlir
       & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"dpcpp, sycl-mlir or acpp.")

let compare_arg =
  Arg.(value & flag & info [ "compare" ] ~doc:"Run all three configurations and report speedups.")

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let profile_json_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-json" ] ~docv:"FILE"
           ~doc:
             "Write the simulated run's timeline to $(docv) in the Chrome \
              trace format (load in chrome://tracing or Perfetto) and print \
              a per-kernel profile table. Single-mode runs only (not \
              $(b,--compare)).")

let metrics_json_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:
             "Write the run's metrics registry (runtime event counters, \
              transfer bytes, launch-latency histogram with p50/p90/p99) to \
              $(docv) as JSON. Single-mode runs only (not $(b,--compare)).")

let trace_json_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-json" ] ~docv:"FILE"
           ~doc:
             "Write one merged Chrome trace to $(docv): compile-phase spans, \
              runtime queue operations and device kernel execution on \
              separate lanes of a shared timeline. Single-mode runs only \
              (not $(b,--compare)).")

let cache_json_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-json" ] ~docv:"FILE"
           ~doc:
             "Write the merged per-op cache counters and the exact \
              reuse-distance histogram (p50/p90/p99) to $(docv) as JSON. \
              Requires a non-flat $(b,--cache-model).")

let annotate_arg =
  Arg.(value & flag
       & info [ "annotate" ]
           ~doc:
             "Print the source-attributed hotspot report after the run: the \
              top source lines by attributed device cycles, with share of \
              total, memory transactions and the coalescing ratio. Named \
              workloads are printed and re-parsed under a virtual file name \
              so every op carries a source location.")

let file_arg =
  Arg.(value & opt (some string) None
       & info [ "file" ] ~docv:"FILE"
           ~doc:
             "Run the textual MLIR module in $(docv) (instead of a named \
              benchmark) with synthesized arguments; its real file/line \
              positions feed the attribution surfaces.")

let size_arg =
  Arg.(value & opt int 16
       & info [ "size" ] ~docv:"N"
           ~doc:
             "Problem size for $(b,--file) runs: scalar main arguments are \
              bound to $(docv), memref arguments to NxN random buffers.")

let attribution_json_arg =
  Arg.(value & opt (some string) None
       & info [ "attribution-json" ] ~docv:"FILE"
           ~doc:
             "Write the full per-op attribution table (cycles, memory \
              transactions, barrier rounds per op and source location) to \
              $(docv) as JSON.")

let annotated_ir_arg =
  Arg.(value & opt (some string) None
       & info [ "annotated-ir" ] ~docv:"FILE"
           ~doc:
             "Write the compiled module with per-op sycl.cycles / \
              sycl.mem_cycles attributes recorded from the run to $(docv). \
              The attributes are discardable and round-trip through the \
              parser and verifier.")

let delta_arg =
  Arg.(value & flag
       & info [ "delta" ]
           ~doc:
             "Run the workload unoptimized (host raising only) and under the \
              full SYCL-MLIR pipeline, and print per-source-line cycle \
              deltas next to the optimization remarks that claimed them.")

let cmd =
  let doc = "run a SYCL-Bench reproduction workload on the simulated device" in
  Cmd.v (Cmd.info "sycl-bench" ~doc)
    Term.(const run $ list_arg $ bench_arg $ mode_arg $ compare_arg
          $ flag "no-licm" "Disable LICM."
          $ flag "no-reduction" "Disable reduction detection."
          $ flag "no-internalization" "Disable loop internalization."
          $ flag "no-host-device" "Disable host-device propagation."
          $ flag "fusion" "Enable compile-time kernel fusion."
          $ profile_json_arg $ metrics_json_arg $ trace_json_arg
          $ Sim_flags.sim_domains $ Sim_flags.check_races $ Sim_flags.cache_model
          $ cache_json_arg $ annotate_arg $ file_arg $ size_arg
          $ attribution_json_arg $ annotated_ir_arg $ delta_arg)

let () = exit (Cmd.eval cmd)
