(* Clock, reference loop and order statistics shared by every workload.

   Raw wall time on a shared host drifts by a fifth or more between
   processes, so timings are reported as multiples of a reference loop
   timed next to the measured work: drift that slows both cancels in the
   ratio. (METRICS.md records how much drift remains.) *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* The reference loop: a tiny bytecode interpreter. It calls no program
   code and does not allocate, but it exercises the host the way the
   interpreters it stands beside do: a jump-table dispatch whose next
   instruction depends on the data, stores streaming through a 2 MiB
   ring (as a minor heap fills) and dependent loads hopping across a
   random cycle through 16 MiB (as reads hop across the major heap).
   Contention from other tenants in the branch predictors, caches and
   memory slows it and the program alike; a pure ALU loop barely sees
   it. Code, data and step count are fixed, never calibrated, so its
   duration measures the host. *)
let ring_words = 1 lsl 18
let chase_words = 1 lsl 21
let code_len = 4096
let ref_steps = 2_000_000

let ring = lazy (Array.make ring_words 0)

let tables =
  lazy
    (let st = Random.State.make [| 0x7e7 |] in
     let chase = Array.init chase_words (fun i -> i) in
     (* Sattolo's algorithm: one cycle through every slot. *)
     for i = chase_words - 1 downto 1 do
       let j = Random.State.int st i in
       let t = chase.(i) in
       chase.(i) <- chase.(j);
       chase.(j) <- t
     done;
     (chase, Array.init code_len (fun _ -> Random.State.int st 12), Array.make 16 1))

let ref_loop () =
  let ring = Lazy.force ring and chase, code, regs = Lazy.force tables in
  let pc = ref 0 and x = ref 1 and w = ref 0 in
  for _ = 1 to ref_steps do
    (match Array.unsafe_get code !pc with
    | 0 -> x := !x + 1
    | 1 -> x := !x lxor (!x lsr 3)
    | 2 -> x := Array.unsafe_get chase (!x land (chase_words - 1))
    | 3 ->
      Array.unsafe_set ring !w !x;
      w := (!w + 1) land (ring_words - 1)
    | 4 -> Array.unsafe_set regs (!x land 15) !x
    | 5 -> x := !x + Array.unsafe_get regs (!x land 15)
    | 6 -> if !x land 1 = 0 then x := !x * 3 else x := (!x / 2) + 1
    | 7 -> x := ((!x * 1103515245) + 12345) land 0x3fffffff
    | 8 ->
      Array.unsafe_set ring !w (!x + 1);
      Array.unsafe_set ring ((!w + 1) land (ring_words - 1)) !x;
      w := (!w + 2) land (ring_words - 1)
    | 9 -> x := Array.unsafe_get ring (!x land (ring_words - 1)) + 1
    | 10 -> x := !x land 0xffffff
    | _ -> x := !x - 1);
    pc := (!pc + 1 + (!x land 3)) land (code_len - 1)
  done;
  ignore (Sys.opaque_identity !x)

(* The reference loop's nominal duration: its median over 3438 samples
   on the 2-vCPU KVM guest (Xeon, 2 MiB L2 per core) the bounds in
   METRICS.md were measured on. A fixed constant, never measured at run
   time: multiplying reference units by it reads them as seconds on
   that host. *)
let nominal_ref_ms = 59.4

(* Duration of one reference-loop call, in ms. *)
let time_ref_loop () =
  ignore (Lazy.force ring, Lazy.force tables);
  let t0 = now_ns () in
  ref_loop ();
  ms_between t0 (now_ns ())

(* Order statistics over samples; [quantile] interpolates linearly
   between closest ranks (the "inclusive" rule). *)
let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile xs q =
  match sorted xs with
  | [||] -> Float.nan
  | a ->
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))

(* Peak resident set of this process, in MB (VmHWM). *)
let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun k -> Some k)
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> None
  in
  match kb with
  | Some k -> float_of_int k /. 1024.0
  | None -> failwith "peak_rss_mb: /proc/self/status has no VmHWM line"
