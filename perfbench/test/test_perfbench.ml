(* The benchmark's own tests: counters it declares exact repeat across
   two runs with the same seed, every op passes its checks at this
   commit, and a forced failure is counted. Runs are cut to the minimum
   (one untraced and one traced pass) and the simulation workloads to a
   few programs, so the tests stay fast. *)

open Perfbench

let layer_values ?programs name =
  let w, layers =
    match name with
    | "sim-barrier" -> Sim_workload.make ?programs ~kind:Sim_workload.Barrier ~trace:true ~seed:7 ()
    | "sim-stream" -> Sim_workload.make ?programs ~kind:Sim_workload.Stream ~trace:true ~seed:7 ()
    | _ -> Service_workload.make ~seed:7
  in
  let r = Harness.run ~seconds:0.0 ~trace:true w in
  Alcotest.(check int) (name ^ ": no op fails") 0 (Harness.failed r);
  Alcotest.(check int) (name ^ ": two passes") 2 (List.length r.Harness.passes);
  List.map (fun (m : Harness.metric) -> (m.Harness.name, m.Harness.value)) (Layers.collect r (layers r))

let exact_sim =
  [ "frontend.ops"; "core.ops_at_pass_start"; "core.rewrites";
    "runtime.kernel_launches"; "runtime.dag_wait_edges"; "runtime.transfer_bytes";
    "sim.work_items"; "sim.work_groups"; "sim.barriers"; "sim.device_cycles";
    "sim.modeled_cycles"; "sim.cache.hits"; "sim.cache.misses"; "sim.cache.hit_rate";
    "gc.minor_mb"; "gc.major_collections" ]

let exact_service =
  [ "frontend.ops"; "core.ops_at_pass_start"; "core.rewrites"; "service.hits";
    "service.misses"; "service.evictions"; "service.hit_ratio";
    "service.cost_units_p50"; "service.cost_units_p90" ]

let check_exact ?programs name keys () =
  let a = layer_values ?programs name and b = layer_values ?programs name in
  List.iter
    (fun k ->
      let v = List.assoc k a in
      Alcotest.(check (float 0.0)) (name ^ " " ^ k) v (List.assoc k b))
    keys;
  a

let sim_barrier () =
  let v = check_exact ~programs:[ "GEMM"; "Atax" ] "sim-barrier" exact_sim () in
  Alcotest.(check bool) "barriers executed" true (List.assoc "sim.barriers" v > 0.0);
  Alcotest.(check (float 0.0)) "flat model: no cache probes" 0.0 (List.assoc "sim.cache.hits" v)

let sim_stream () =
  let v = check_exact ~programs:[ "jacobi"; "VectorAddition" ] "sim-stream" exact_sim () in
  Alcotest.(check (float 0.0)) "barrier-free" 0.0 (List.assoc "sim.barriers" v);
  Alcotest.(check bool) "cache probed" true (List.assoc "sim.cache.hits" v > 0.0)

let service () =
  let v = check_exact "compile-service" exact_service () in
  Alcotest.(check (float 0.0)) "cold compiles" 261.0 (List.assoc "service.misses" v);
  Alcotest.(check (float 0.0)) "re-sends hit" 130.0 (List.assoc "service.hits" v)

let partition () =
  let names kind =
    List.map (fun (w : Sycl_workloads.Common.workload) -> w.Sycl_workloads.Common.w_name)
      (Sim_workload.programs kind)
  in
  let b = names Sim_workload.Barrier and s = names Sim_workload.Stream in
  Alcotest.(check int) "barrier programs" 11 (List.length b);
  Alcotest.(check int) "stream programs" 18 (List.length s);
  Alcotest.(check bool) "disjoint" true (List.for_all (fun n -> not (List.mem n s)) b)

(* A test double whose ops fail in each way the harness must count: an
   exception in the timed part, a false check, an exception in the
   check. *)
let forced_failures () =
  let ok = { Harness.cls = "run"; run = (fun () () -> true) } in
  let ops =
    [| ok; { ok with run = (fun () -> failwith "timed") };
       { ok with run = (fun () () -> false) };
       { ok with run = (fun () () -> failwith "check") }; ok |]
  in
  let w = { Harness.setup = ignore; prepare_pass = (fun ~traced:_ -> ops); finish_pass = ignore } in
  let r = Harness.run ~seconds:0.0 ~trace:false w in
  Alcotest.(check int) "attempted" 5 (Harness.attempted r);
  Alcotest.(check int) "failed" 3 (Harness.failed r);
  let ok_ratio =
    List.find
      (fun (m : Harness.metric) -> m.Harness.name = "ok_ratio")
      (Harness.end_to_end ~setup_s:(Harness.process_setup_s r.Harness.setups) r)
  in
  Alcotest.(check (float 1e-12)) "ok_ratio" 0.4 ok_ratio.Harness.value

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "program partition by barriers" `Quick partition;
          Alcotest.test_case "forced failures are counted" `Quick forced_failures;
          Alcotest.test_case "compile-service exact counters" `Quick service;
          Alcotest.test_case "sim-barrier exact counters" `Slow sim_barrier;
          Alcotest.test_case "sim-stream exact counters" `Slow sim_stream;
        ] );
    ]
