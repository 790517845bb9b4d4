(* The compile-service workload. Every suite program's text is sent to a
   fresh compile service per driver configuration (nine: the three
   compilers, four ablations, fusion and lowering), one closed-loop
   request at a time through [Service.compile_one]: 261 cold compiles per
   pass. Between them the seeded stream re-sends earlier programs as
   SSA-renamed or re-indented variants, which must be served from the
   cache: exactly 130 re-sends, so a third of the requests are hits.
   The simulator is never touched.

   Checks (outside the timed request): a cold response must be a miss
   and a [Success] whose text re-parses and verifies; a re-send must be
   a hit whose text is byte-identical to the cold response for the same
   program in the same service. A cold response that differs from the
   first compile of the same program earlier in the process is not a
   failure but is counted as service.cold_drift: at this commit the
   fusion configuration names fused kernels from a process-wide counter,
   so its output depends on what was compiled before. *)

open Mlir
open Sycl_workloads
module Driver = Sycl_core.Driver
module Service = Sycl_service.Service
module Metrics = Sycl_obs.Metrics

let configs =
  let c = Driver.config in
  [
    c Driver.Dpcpp;
    c Driver.Adaptive_cpp;
    c Driver.Sycl_mlir;
    c ~enable_internalization:false Driver.Sycl_mlir;
    c ~enable_reduction:false Driver.Sycl_mlir;
    c ~enable_licm:false Driver.Sycl_mlir;
    c ~enable_host_device:false ~enable_alias_refinement:false Driver.Sycl_mlir;
    c ~enable_fusion:true Driver.Sycl_mlir;
    c ~enable_lowering:true Driver.Sycl_mlir;
  ]

let n_resends n_cold = n_cold / 2

(* SSA values %N become %vN; the canonical text is unchanged. *)
let renamed text =
  let b = Buffer.create (String.length text + 1024) in
  String.iteri
    (fun i ch ->
      Buffer.add_char b ch;
      if ch = '%' && i + 1 < String.length text
         && text.[i + 1] >= '0' && text.[i + 1] <= '9'
      then Buffer.add_char b 'v')
    text;
  Buffer.contents b

(* Every line indented two more spaces, with a blank line after it. *)
let respaced text =
  String.split_on_char '\n' text
  |> List.map (fun l -> "  " ^ l)
  |> String.concat "\n\n"

type request = {
  prog : int;
  cfg : int;
  cold : bool;
  rq : Service.request;
}

(* The request stream: every (program, config) pair once, in seeded
   order, with the re-sends interleaved at seeded points; a re-send picks
   a pair already sent and one of the two variants. *)
let stream ~seed (names : string array) (texts : string array) : request array =
  let st = Random.State.make [| 0xc0de; seed |] in
  let n_cfg = List.length configs in
  let cold = Array.init (Array.length texts * n_cfg) (fun i -> (i / n_cfg, i mod n_cfg)) in
  for i = Array.length cold - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = cold.(i) in
    cold.(i) <- cold.(j);
    cold.(j) <- t
  done;
  let out = ref [] and sent = ref 0 in
  let resends_left = ref (n_resends (Array.length cold)) in
  let req prog cfg cold name text =
    { prog; cfg; cold; rq = { Service.rq_name = name; rq_text = text } }
  in
  while !sent < Array.length cold || !resends_left > 0 do
    let cold_left = Array.length cold - !sent in
    let take_cold =
      !sent = 0
      || !resends_left = 0
      || cold_left > 0
         && Random.State.int st (cold_left + !resends_left) < cold_left
    in
    if take_cold then begin
      let p, c = cold.(!sent) in
      incr sent;
      out := req p c true (names.(p) ^ ".mlir") texts.(p) :: !out
    end
    else begin
      decr resends_left;
      let p, c = cold.(Random.State.int st !sent) in
      let r =
        if Random.State.bool st then
          req p c false (names.(p) ^ ".renamed.mlir") (renamed texts.(p))
        else req p c false (names.(p) ^ ".spaced.mlir") (respaced texts.(p))
      in
      out := r :: !out
    end
  done;
  Array.of_list (List.rev !out)

let verifies text =
  match Parser.parse_module text with
  | m -> Result.is_ok (Verifier.verify m)
  | exception _ -> false

let make ~seed =
  let requests = ref [||] in
  (* Per (program, config): the first cold output of the run, the cold
     output of this pass, and the last output that verified. *)
  let first_cold : (int * int, string) Hashtbl.t = Hashtbl.create 512 in
  let pass_cold : (int * int, string) Hashtbl.t = Hashtbl.create 512 in
  let verified : (int * int, string) Hashtbl.t = Hashtbl.create 512 in
  let services = ref [||] in
  let cost_units = ref [] and last_cost_units = ref [] in
  let setup () =
    let ws = Array.of_list (Suite.all ()) in
    let texts =
      Array.map
        (fun (w : Common.workload) ->
          let m = Harness.timed "frontend.build_ms" w.Common.w_module in
          Harness.count "frontend.ops" (float_of_int (Core_probe.count_ops m));
          Printer.to_string m)
        ws
    in
    requests :=
      stream ~seed (Array.map (fun (w : Common.workload) -> w.Common.w_name) ws) texts
  in
  let check (r : request) (rs : Service.response) () =
    match rs.Service.rs_outcome with
    | Service.Failure _ -> false
    | Service.Success text ->
      let key = (r.prog, r.cfg) in
      if r.cold then begin
        let cost = float_of_int rs.Service.rs_cost_units in
        cost_units := cost :: !cost_units;
        (* The cost units are the module's op count at each pass entry,
           summed over the pipeline. *)
        Harness.count "core.ops_at_pass_start" cost;
        if !Spans.enabled then begin
          (* The IR layer alone, on the same text. *)
          let m = Harness.timed "ir.parse_ms" (fun () -> Parser.parse_module r.rq.Service.rq_text) in
          Harness.count "ir.parse_kb" (float_of_int (String.length r.rq.Service.rq_text) /. 1024.0);
          ignore (Harness.timed "ir.print_ms" (fun () -> Printer.to_string m))
        end;
        (match Hashtbl.find_opt first_cold key with
        | None -> Hashtbl.replace first_cold key text
        | Some t -> if not (String.equal t text) then Harness.count "service.cold_drift" 1.0);
        Hashtbl.replace pass_cold key text;
        let valid =
          match Hashtbl.find_opt verified key with
          | Some t when String.equal t text -> true
          | _ ->
            let ok = verifies text in
            if ok then Hashtbl.replace verified key text;
            ok
        in
        (not rs.Service.rs_cache_hit) && valid
      end
      else
        rs.Service.rs_cache_hit
        && (match Hashtbl.find_opt pass_cold key with
           | Some t -> String.equal t text
           | None -> false)
  in
  let prepare_pass ~traced =
    let wrap = if traced then Core_probe.wrap else Fun.id in
    services :=
      Array.of_list
        (List.map
           (fun cfg ->
             let pipeline = Driver.host_pipeline cfg @ Driver.device_pipeline cfg in
             Service.create ~workers:1 ~pipeline:(List.map wrap pipeline)
               ~pipeline_key:(Driver.config_key cfg) ())
           configs);
    cost_units := [];
    Hashtbl.reset pass_cold;
    Array.map
      (fun r ->
        {
          Harness.cls = (if r.cold then "miss" else "hit");
          run =
            (fun () ->
              let rs =
                Harness.timed "service.compile_one" (fun () ->
                    Service.compile_one !services.(r.cfg) r.rq)
              in
              check r rs);
        })
      !requests
  in
  let finish_pass () =
    Array.iter
      (fun s ->
        let c n = float_of_int (Metrics.counter_value (Service.metrics s) n) in
        Harness.count "service.hits" (c "service.cache_hits");
        Harness.count "service.misses" (c "service.cache_misses");
        Harness.count "service.evictions" (c "service.cache_evictions"))
      !services;
    last_cost_units := !cost_units
  in
  let layers (r : Harness.result) =
    let open Harness in
    let u = untraced r and t = traced r and all = r.passes in
    let med ps f = Measure.median (List.map f ps) in
    let c name p = counter name p.counters in
    let hits = med all (c "service.hits") and misses = med all (c "service.misses") in
    let self name p =
      List.fold_left (fun a (n, _, _, s) -> if n = name then a +. s else a) 0.0 p.self_times
    in
    let q cls x = Measure.quantile (lat_ref ~cls u) x in
    [
      ("service.hit_ms", Measure.median (lat_ms ~cls:"hit" u));
      ("service.miss_ms", Measure.median (lat_ms ~cls:"miss" u));
      ("service.hit_p50_ref", q "hit" 0.5);
      ("service.hit_p90_ref", q "hit" 0.9);
      ("service.miss_p50_ref", q "miss" 0.5);
      ("service.miss_p90_ref", q "miss" 0.9);
      ("service.hits", hits);
      ("service.misses", misses);
      ("service.evictions", med all (c "service.evictions"));
      ("service.cold_drift", med all (c "service.cold_drift"));
      ("service.hit_ratio", hits /. Float.max 1.0 (hits +. misses));
      ("service.cost_units_p50", Measure.quantile !last_cost_units 0.5);
      ("service.cost_units_p90", Measure.quantile !last_cost_units 0.9);
      ("service.self_ms", med t (self "service.compile_one"));
      ("ir.parse_ms", med t (c "ir.parse_ms"));
      ("ir.print_ms", med t (c "ir.print_ms"));
      ("ir.parse_kb_per_ms", med t (fun p -> c "ir.parse_kb" p /. c "ir.parse_ms" p));
    ]
    @ List.filter_map
        (fun name ->
          if String.starts_with ~prefix:"core." name then Some (name, med t (c name)) else None)
        (List.sort_uniq String.compare
           (List.concat_map (fun p -> List.map fst p.counters) t))
  in
  ({ Harness.setup; prepare_pass; finish_pass }, layers)
