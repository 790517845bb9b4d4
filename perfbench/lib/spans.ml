(* In-memory span recorder for the traced run. Spans are opened and
   closed by the benchmark's own code around each call into a layer; they
   are kept in memory and exported as Chrome-trace JSON when the run ends.
   Recording is off unless [enabled] is set, so untraced passes pay one
   branch per call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  op : int;  (** the op (timed unit) this span belongs to, -1 outside ops *)
  start_ns : int64;
  mutable end_ns : int64;
}

let enabled = ref false
let current_op = ref (-1)
let next_id = ref 0
let stack : span list ref = ref []
let finished : span list ref = ref []

let enter name =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = !next_id; name; parent; op = !current_op;
      start_ns = Measure.now_ns (); end_ns = 0L }
  in
  incr next_id;
  stack := s :: !stack;
  s

(* Close [s] and any child left open by an exception that skipped its
   own exit. *)
let exit_ (s : span) =
  let t = Measure.now_ns () in
  let rec pop = function
    | [] -> []
    | x :: rest ->
      x.end_ns <- t;
      finished := x :: !finished;
      if x.id = s.id then rest else pop rest
  in
  stack := pop !stack

let with_span name f =
  if not !enabled then f ()
  else begin
    let s = enter name in
    Fun.protect ~finally:(fun () -> exit_ s) f
  end

(* The finished spans, in closing order; clears the store. *)
let take () =
  let spans = List.rev !finished in
  finished := [];
  spans

let dur_ms s = Measure.ms_between s.start_ns s.end_ns

(* Self time per span name: each span's duration minus the part its
   direct children cover (children nest strictly inside their parent).
   Returns (name, count, total_ms, self_ms), sorted by name. *)
let self_times (spans : span list) =
  let child_ms = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (dur_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = dur_ms s in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id) in
      let c, t, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (c + 1, t +. d, sf +. self))
    spans;
  Hashtbl.fold (fun n (c, t, sf) acc -> (n, c, t, sf) :: acc) by_name []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

(* Chrome-trace JSON through the repo's trace exporter: one complete
   event per span on the host lane, microseconds relative to the first
   span, with the span's id, parent and op as arguments. *)
let to_chrome_json (spans : span list) : Mlir.Json.t =
  let module Trace = Sycl_obs.Trace in
  let t0 =
    List.fold_left (fun m s -> if Int64.compare s.start_ns m < 0 then s.start_ns else m)
      (match spans with s :: _ -> s.start_ns | [] -> 0L)
      spans
  in
  let us t = Int64.to_int (Int64.div (Int64.sub t t0) 1000L) in
  Trace.to_json
    (List.map
       (fun s ->
         { Trace.sp_name = s.name; sp_cat = "perfbench"; sp_lane = Trace.Host;
           sp_ts = us s.start_ns; sp_dur = us s.end_ns - us s.start_ns;
           sp_args = [ ("id", s.id); ("parent", s.parent); ("op", s.op) ] })
       spans)
