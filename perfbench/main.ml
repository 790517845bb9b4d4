(* Benchmark entry point:

     main.exe --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
     main.exe --workload W --seed N --setup-only

   Prints one audit line per set-up block and per pass (raw seconds
   beside the reference-loop time and the normalised value), the
   per-layer self-time table in a traced run, and as its last line one
   JSON object with the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1). With --setup-only it only sets up, and its last
   line is the set-up time. *)

open Perfbench

let workloads = [ "sim-barrier"; "sim-stream"; "compile-service" ]

let make ~trace ~seed = function
  | "sim-barrier" -> Sim_workload.make ~kind:Sim_workload.Barrier ~trace ~seed ()
  | "sim-stream" -> Sim_workload.make ~kind:Sim_workload.Stream ~trace ~seed ()
  | "compile-service" -> Service_workload.make ~seed
  | w -> failwith ("unknown workload " ^ w)

(* Self time per span name inside ops, summed over the traced passes. *)
let print_self_times (r : Harness.result) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (p : Harness.pass_sample) ->
      List.iter
        (fun (n, c, t, self) ->
          let c0, t0, s0 = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl n) in
          Hashtbl.replace tbl n (c0 + c, t0 +. t, s0 +. self))
        p.Harness.op_self_times)
    (Harness.traced r);
  let rows = List.sort compare (Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl []) in
  let op_total = match Hashtbl.find_opt tbl "op" with Some (_, t, _) -> t | None -> 0.0 in
  Printf.printf "self time inside ops over %d traced passes (%% of op wall time):\n"
    (List.length (Harness.traced r));
  List.iter
    (fun (n, (c, t, self)) ->
      Printf.printf "  %-44s %8d calls %12.3f ms total %12.3f ms self %6.2f%%\n"
        (if n = "op" then "op (uncovered remainder)" else n)
        c t self (100.0 *. self /. op_total))
    rows;
  Printf.printf "  %-44s %8s       %12.3f ms total %12.3f ms self\n" "all spans inside ops" ""
    op_total (List.fold_left (fun a (_, (_, _, s)) -> a +. s) 0.0 rows)

(* A metric left without samples reads 0 when ops failed (the result is
   then marked incorrect anyway); otherwise it is a benchmark bug. *)
let metrics_json ~failed (ms : Harness.metric list) =
  Mlir.Json.Obj
    (List.map
       (fun (m : Harness.metric) ->
         let v = m.Harness.value in
         if (not (Float.is_finite v)) && failed = 0 then
           failwith ("metric " ^ m.Harness.name ^ " is not a finite number");
         ( m.Harness.name,
           Mlir.Json.Obj
             [ ("value", Mlir.Json.Float (if Float.is_finite v then v else 0.0));
               ("unit", Mlir.Json.String m.Harness.unit_) ] ))
       ms)

let print_setups (setups : Harness.setup_sample list) =
  List.iteri
    (fun i (s : Harness.setup_sample) ->
      Printf.printf "setup block %d: %.6f s per set-up, ref %.6f ms, nominal %.6f s\n" (i + 1)
        s.Harness.setup_s s.Harness.setup_ref_ms (Harness.setup_nominal_s s))
    setups

(* Set-up time differs between processes, and over seconds, by more than
   between set-ups in one process: a 10 ms set-up is at the mercy of
   where the process landed (its memory layout, its core) and of what
   the neighbours do just then. So an untraced run also sets up in
   [setup_processes] fresh processes of this executable, started one at
   a time between its passes (the rest after the last pass), and
   [setup_s] is the median over them and itself. *)
let setup_processes = 6

let setup_in_process ~workload ~seed i =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" |]
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "set-up process failed");
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  List.iter (fun l -> Printf.printf "process %d %s\n" (i + 1) l) lines;
  Scanf.sscanf (List.nth lines (List.length lines - 1)) "setup_s %f" Fun.id

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and trace_out = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--trace-out", Arg.Set_string trace_out, "F Chrome-trace JSON of the traced run");
      ("--setup-only", Arg.Set setup_only, " only set up, and print the set-up time");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !workload = "" then (prerr_endline "--workload is required"; exit 2);
  let trace = !trace = 1 in
  let w, layers = make ~trace ~seed:!seed !workload in
  if !setup_only then begin
    let setups, _ = Harness.setup ~trace:false w in
    print_setups setups;
    Printf.printf "setup_s %.9f\n" (Harness.process_setup_s setups);
    exit 0
  end;
  let process_setups = ref [] and pending = ref (if trace then 0 else setup_processes) in
  let next_process () =
    if !pending > 0 then begin
      decr pending;
      let i = setup_processes - !pending - 1 in
      process_setups := setup_in_process ~workload:!workload ~seed:!seed i :: !process_setups
    end
  in
  let r = Harness.run ~between:next_process ~seconds:!seconds ~trace w in
  while !pending > 0 do next_process () done;
  print_setups r.Harness.setups;
  List.iteri
    (fun i (p : Harness.pass_sample) ->
      Printf.printf
        "pass %d%s: %d ops %d failed, wall %.6f s, ref %.6f ms, pass_ref %.2f, minor %.3f MB\n"
        (i + 1) (if p.Harness.traced then " (traced)" else "")
        p.Harness.n_ops p.Harness.n_failed (p.Harness.wall_ms /. 1e3) p.Harness.ref_ms
        (Harness.pass_ref p) p.Harness.minor_mb)
    r.Harness.passes;
  let metrics =
    if trace then begin
      print_self_times r;
      if !trace_out <> "" then
        Out_channel.with_open_text !trace_out (fun oc ->
            output_string oc (Mlir.Json.to_string (Spans.to_chrome_json r.Harness.spans)));
      Layers.collect r (layers r)
    end
    else
      Harness.end_to_end
        ~setup_s:(Measure.median (Harness.process_setup_s r.Harness.setups :: !process_setups))
        r
  in
  let attempted = Harness.attempted r and failed = Harness.failed r in
  print_endline
    (Mlir.Json.to_string ~compact:true
       (Mlir.Json.Obj
          [
            ("correct", Mlir.Json.Bool (failed = 0));
            ("attempted", Mlir.Json.Int attempted);
            ("failed", Mlir.Json.Int failed);
            ("metrics", metrics_json ~failed metrics);
          ]))
