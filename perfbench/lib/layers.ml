(* The per-layer metrics every workload prints in its traced run, in
   the order BENCHMARK.json lists them. A layer a workload does not
   exercise reads 0 (the compile service never simulates; the simulation
   workloads never send a request). Count directions read "less work is
   better" unless the count is a useful outcome (hits). *)

let core_passes =
  [ "canonicalize"; "cse"; "dce"; "detect-reduction"; "host-device-propagation";
    "host-raising"; "inline"; "kernel-fusion"; "licm"; "licm-pure";
    "loop-internalization"; "loop-unroll"; "lower-sycl"; "store-forwarding";
    "sycl-dead-argument-elimination" ]

let pass_metric p = "core.pass." ^ p ^ ".self_ms"
let other_passes = pass_metric "other"

(* (name, unit, better) *)
let all =
  [ ("frontend.build_ms", "ms", "lower"); ("frontend.ops", "count", "lower") ]
  @ List.map (fun p -> (pass_metric p, "ms", "lower")) core_passes
  @ [
      (other_passes, "ms", "lower");
      ("core.ops_at_pass_start", "count", "lower");
      ("core.rewrites", "count", "lower");
      ("ir.parse_ms", "ms", "lower");
      ("ir.parse_kb_per_ms", "kB/ms", "higher");
      ("ir.print_ms", "ms", "lower");
      ("service.hit_ms", "ms", "lower");
      ("service.miss_ms", "ms", "lower");
      ("service.hit_p50_ref", "ref", "lower");
      ("service.hit_p90_ref", "ref", "lower");
      ("service.miss_p50_ref", "ref", "lower");
      ("service.miss_p90_ref", "ref", "lower");
      ("service.hits", "count", "higher");
      ("service.misses", "count", "lower");
      ("service.evictions", "count", "lower");
      ("service.cold_drift", "count", "lower");
      ("service.hit_ratio", "ratio", "higher");
      ("service.cost_units_p50", "count", "lower");
      ("service.cost_units_p90", "count", "lower");
      ("service.self_ms", "ms", "lower");
      ("workloads.data_ms", "ms", "lower");
      ("runtime.exec_ms", "ms", "lower");
      ("runtime.kernel_launches", "count", "lower");
      ("runtime.dag_wait_edges", "count", "lower");
      ("runtime.transfer_bytes", "bytes", "lower");
      ("sim.work_items", "count", "lower");
      ("sim.work_groups", "count", "lower");
      ("sim.barriers", "count", "lower");
      ("sim.device_cycles", "cycles", "lower");
      ("sim.modeled_cycles", "cycles", "lower");
      ("sim.exec_ref_per_kitem", "ref", "lower");
      ("sim.cache.hits", "count", "higher");
      ("sim.cache.misses", "count", "lower");
      ("sim.cache.hit_rate", "ratio", "higher");
      ("sim.cache.overhead_ms", "ms", "lower");
      ("gc.minor_mb", "MB", "lower");
      ("gc.major_collections", "count", "lower");
      ("host.ref_ms", "ms", "lower");
      ("host.pass_wall_s", "s", "lower");
      ("trace.overhead_ref", "ref", "lower");
      ("trace.remainder_ms", "ms", "lower");
    ]

(* Assemble the full list from the set-up counters (median over set-ups),
   the workload's own layer values and the common ones. A pass this list
   does not name is folded into [other_passes]; any other unknown name is
   a benchmark bug. *)
let collect (r : Harness.result) (workload_values : (string * float) list) :
    Harness.metric list =
  let tbl = Hashtbl.create 64 in
  let put (name, v) =
    let name =
      if String.starts_with ~prefix:"core.pass." name
         && not (List.exists (fun (n, _, _) -> n = name) all)
      then other_passes
      else name
    in
    if not (List.exists (fun (n, _, _) -> n = name) all) then
      failwith ("unlisted layer metric " ^ name);
    Hashtbl.replace tbl name (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))
  in
  let setup_names =
    List.sort_uniq String.compare
      (List.concat_map (fun s -> List.map fst s.Harness.setup_counters) r.Harness.setups)
  in
  List.iter
    (fun n ->
      put
        ( n,
          Measure.median
            (List.map (fun s -> Harness.counter n s.Harness.setup_counters) r.Harness.setups) ))
    setup_names;
  List.iter put workload_values;
  List.iter (fun (m : Harness.metric) -> put (m.Harness.name, m.Harness.value))
    (Harness.common_layers r);
  List.map
    (fun (name, unit_, _) ->
      Harness.m name unit_ (Option.value ~default:0.0 (Hashtbl.find_opt tbl name)))
    all
