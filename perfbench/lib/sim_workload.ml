(* The two simulation workloads. One op is fresh input data plus one
   [Host_interp.run] of one compiled suite program on a single simulator
   domain; its output is validated against the workload's reference
   check, and its modeled cycle count must repeat exactly.

   The suite is split by a fixed rule: programs whose SYCL-MLIR run
   executes group barriers at this commit (sim.barriers > 0) form
   [sim-barrier]; the rest, all barrier-free, form [sim-stream]. The
   split is by name so it cannot move with the code it measures. *)

open Sycl_workloads
module Host_interp = Sycl_runtime.Host_interp
module Driver = Sycl_core.Driver
module Cost = Sycl_sim.Cost
module Metrics = Sycl_obs.Metrics

type kind = Barrier | Stream

let barrier_programs =
  [ "2mm"; "3mm"; "GEMM"; "SYRK"; "SYR2K"; "Covariance"; "Correlation";
    "Atax"; "Bicg"; "MVT"; "GESUMMV" ]

let programs kind =
  let all = Suite.all () in
  List.iter
    (fun n ->
      if not (List.exists (fun (w : Common.workload) -> w.Common.w_name = n) all)
      then failwith ("sim workload: suite program missing: " ^ n))
    barrier_programs;
  List.filter
    (fun (w : Common.workload) ->
      List.mem w.Common.w_name barrier_programs = (kind = Barrier))
    all

let cache_model = function Barrier -> Cost.Flat | Stream -> Cost.Set_associative

type prog = {
  w : Common.workload;
  m : Mlir.Core.op;  (** the compiled module, run by every op *)
  mutable cycles : int option;  (** modeled cycles of the first run *)
}

let run_prog ~model p args =
  Host_interp.run ~sim_domains:1 ~cache_model:model ~module_op:p.m args

(* Exact per-run counters, added to the pass totals by the check. *)
let count_run (r : Host_interp.run_result) =
  let c n = float_of_int (Metrics.counter_value r.Host_interp.metrics n) in
  let add = Harness.count in
  add "runtime.kernel_launches" (float_of_int r.Host_interp.kernel_launches);
  add "runtime.dag_wait_edges" (c "runtime.dag_wait_edges");
  add "runtime.transfer_bytes"
    (c "runtime.transfer_bytes_h2d" +. c "runtime.transfer_bytes_d2h");
  add "sim.work_items" (c "sim.work_items");
  add "sim.work_groups" (c "sim.work_groups");
  add "sim.barriers" (c "sim.barriers");
  add "sim.device_cycles" (float_of_int r.Host_interp.device_cycles);
  add "sim.cache.hits" (c "sim.cache.hits");
  add "sim.cache.misses" (c "sim.cache.misses")

(* Layer metrics: exact counts per pass (every pass adds the same), and
   layer times per pass from the traced passes. *)
let layers (r : Harness.result) (progs : prog list) : (string * float) list =
  let open Harness in
  let all = r.passes and t = traced r in
  let med ps name = Measure.median (List.map (fun p -> counter name p.counters) ps) in
  let exact name = (name, med all name) in
  let hits = med all "sim.cache.hits" and misses = med all "sim.cache.misses" in
  let exec_ref_per_kitem =
    Measure.median
      (List.map
         (fun p ->
           counter "runtime.exec_ms" p.counters /. p.ref_ms
           /. (counter "sim.work_items" p.counters /. 1e3))
         t)
  in
  let overhead =
    if List.exists (fun p -> counter "sim.cache.flat_exec_ms" p.counters > 0.0) t then
      Measure.median
        (List.map
           (fun p ->
             counter "runtime.exec_ms" p.counters
             -. counter "sim.cache.flat_exec_ms" p.counters)
           t)
    else 0.0
  in
  [
    ("runtime.exec_ms", med t "runtime.exec_ms");
    ("workloads.data_ms", med t "workloads.data_ms");
    exact "runtime.kernel_launches";
    exact "runtime.dag_wait_edges";
    exact "runtime.transfer_bytes";
    exact "sim.work_items";
    exact "sim.work_groups";
    exact "sim.barriers";
    exact "sim.device_cycles";
    ( "sim.modeled_cycles",
      Measure.geomean
        (List.filter_map (fun p -> Option.map float_of_int p.cycles) progs) );
    ("sim.exec_ref_per_kitem", exec_ref_per_kitem);
    ("sim.cache.hits", hits);
    ("sim.cache.misses", misses);
    ("sim.cache.hit_rate", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    ("sim.cache.overhead_ms", overhead);
  ]

(* [programs] narrows the suite partition (tests run a subset). *)
let make ?programs:subset ~kind ~trace ~seed () =
  let model = cache_model kind in
  let cfg = Driver.config Driver.Sycl_mlir in
  let progs = ref [] in
  let setup () =
    progs :=
      List.map
        (fun (w : Common.workload) ->
          let m = Harness.timed "frontend.build_ms" w.Common.w_module in
          Harness.count "frontend.ops" (float_of_int (Core_probe.count_ops m));
          let instrumentations = if trace then [ Core_probe.instrument ] else [] in
          let c = Driver.compile ~instrumentations cfg m in
          Harness.count "core.rewrites"
            (float_of_int
               (Core_probe.stats_total (Mlir.Pass.merged_stats c.Driver.pipeline_result)));
          { w; m; cycles = None })
        (match subset with
        | None -> programs kind
        | Some names ->
          List.filter (fun (w : Common.workload) -> List.mem w.Common.w_name names)
            (programs kind))
  in
  let op p =
    {
      Harness.cls = "run";
      run =
        (fun () ->
          let args, validate = Harness.timed "workloads.data_ms" p.w.Common.w_data in
          let r = Harness.timed "runtime.exec_ms" (fun () -> run_prog ~model p args) in
          fun () ->
            let valid = validate () in
            let cyc = r.Host_interp.total_cycles in
            let same = match p.cycles with None -> true | Some c -> c = cyc in
            if p.cycles = None then p.cycles <- Some cyc;
            count_run r;
            (* The cache model's own cost: the same run under the flat
               model, timed in traced passes outside the op. *)
            if !Spans.enabled && model <> Cost.Flat then begin
              let args, _ = p.w.Common.w_data () in
              ignore
                (Harness.timed "sim.cache.flat_exec_ms" (fun () ->
                     run_prog ~model:Cost.Flat p args))
            end;
            (* Each op starts from a collected heap: one program's
               garbage is not charged to the next, and the op order does
               not move the peak resident set. *)
            Gc.full_major ();
            valid && same);
    }
  in
  (* The seed fixes the op order of every pass. *)
  let order = Random.State.make [| 0x51a; seed |] in
  let prepare_pass ~traced:_ =
    let a = Array.of_list (List.map op !progs) in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int order (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  ({ Harness.setup; prepare_pass; finish_pass = ignore }, fun r -> layers r !progs)
