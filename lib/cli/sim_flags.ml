(* The simulator settings shared by the command-line tools: one cmdliner
   term per flag, each yielding the optional value of the matching label
   of [Sycl_runtime.Host_interp.run] (None = that label's default). *)

open Cmdliner

let positive_int =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (`Msg ("want an integer >= 1, got " ^ s))),
      Format.pp_print_int )

let sim_domains =
  Arg.(value & opt (some positive_int) None
       & info [ "sim-domains" ] ~docv:"N"
           ~doc:
             "Execute the simulated device's work-groups on $(docv) worker \
              domains (default: $(b,SYCL_SIM_DOMAINS), else the recommended \
              domain count). Results are bit-identical to the sequential \
              backend.")

let check_races =
  Arg.(value
       & vflag None
           [ ( Some true,
               info [ "sim-check-races" ]
                 ~doc:
                   "Record per-work-group write footprints and fail when two \
                    work-groups of one launch write overlapping global \
                    locations (a violation of SYCL's inter-group \
                    independence)." ) ])

let cache_model_conv =
  Arg.conv
    ( (fun s ->
        match Sycl_sim.Cost.model_of_string s with
        | Some m -> Ok m
        | None -> Error (`Msg ("unknown cache model " ^ s ^ " (flat|dm|assoc)"))),
      fun fmt m -> Format.pp_print_string fmt (Sycl_sim.Cost.model_to_string m)
    )

let cache_model =
  Arg.(value & opt (some cache_model_conv) None
       & info [ "cache-model" ] ~docv:"MODEL"
           ~doc:
             "Simulate a per-core data cache over the coalesced global \
              transactions: $(b,dm) (direct-mapped), $(b,assoc) \
              (set-associative LRU) or $(b,flat) (no cache — the default, \
              byte-identical to previous releases). Launch statistics gain \
              hit/miss/eviction/memory-wait counters with \
              hits + misses = global transactions exactly.")

(** [simulating run] applies [run] to the three parsed settings. *)
let simulating run =
  Term.(
    const (fun sim_domains check_races cache_model ->
        run ?sim_domains ?check_races ?cache_model)
    $ sim_domains $ check_races $ cache_model)
