(* Timing of the core layer from outside: hooks fired around every pass
   execution. [instrument] installs them through [Instrument.make] where
   the caller drives [Driver.compile], and also counts the module's ops
   at each pass entry. [wrap] puts them around a pass handed to a compile
   service, which takes a pipeline, not instrumentations; there the op
   count comes from the service's own cost units. Both record, per pass
   name, a span and its time; [wrap] also adds the pass's statistics
   total. *)

open Mlir

(* The service counts ops the same way for its cost units, but does not
   export its walker. *)
let count_ops m =
  let n = ref 0 in
  Core.walk m ~f:(fun _ -> incr n);
  !n

let open_spans : Spans.span list ref = ref []

let enter_pass pass_name =
  open_spans := Spans.enter ("core.pass." ^ pass_name) :: !open_spans

let exit_pass () =
  match !open_spans with
  | s :: rest ->
    open_spans := rest;
    Spans.exit_ s;
    Harness.count (s.Spans.name ^ ".self_ms") (Spans.dur_ms s)
  | [] -> ()

let stats_total (st : Pass.Stats.t) =
  List.fold_left (fun a (_, v) -> a + v) 0 (Pass.Stats.to_list st)

let instrument =
  Instrument.make
    ~before_pass:(fun ~pass_name m ->
      Harness.count "core.ops_at_pass_start" (float_of_int (count_ops m));
      enter_pass pass_name)
    ~after_pass:(fun ~pass_name:_ _ -> exit_pass ())
    "perfbench"

let wrap (p : Pass.t) : Pass.t =
  {
    p with
    Pass.run =
      (fun m st ->
        enter_pass p.Pass.pass_name;
        Fun.protect ~finally:exit_pass (fun () -> p.Pass.run m st);
        Harness.count "core.rewrites" (float_of_int (stats_total st)));
  }
