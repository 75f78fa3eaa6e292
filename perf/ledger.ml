(* The metric table one workload run fills in, and its two renderings:
   one human-readable [name value unit] line per metric, and the final
   JSON result line.

   [end_to_end] and [per_layer] are the contract with BENCHMARK.json:
   the untraced run's result line carries exactly the former, the
   traced run's exactly the latter.  Every other metric is a detail:
   printed and written to [-json], but not part of the result line. *)

module J = Ascy_util.Json

type metric = { name : string; value : float; unit : string }

let end_to_end = [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("throughput_per_s", "1/s") ]

let per_layer =
  [
    ("coh_mesi.create_us", "us");
    ("coh_mesi.create_words", "words");
    ("coh_mesi.access_ns", "ns");
    ("coh_flat.access_ns", "ns");
    ("engine.session_us.mesi", "us");
    ("engine.session_us.flat", "us");
    ("sim.decision_ns.free", "ns");
    ("sim.decision_ns.controlled", "ns");
    ("sim.decision_ns.faults", "ns");
    ("mem_native.get_ns", "ns");
    ("mem_native.set_ns", "ns");
    ("mem_native.cas_ns", "ns");
    ("mem_native.faa_ns", "ns");
    ("mem_native.kcas2_ns", "ns");
    ("mem_native.kcas4_ns", "ns");
    ("mem_native.kcas8_ns", "ns");
    ("mem_native.cas_contended_ns", "ns");
    ("mem_native.cas_success_ratio", "ratio");
    ("mem_native.kcas4_contended_ns", "ns");
    ("mem_native.kcas4_success_ratio", "ratio");
    ("mem_native.kcas4_acquires_per_op", "count");
    ("router.route_ns", "ns");
    ("shard_queue.roundtrip_ns", "ns");
    ("par_explore.speedup_2d", "x");
    ("trace.overhead_pct", "%");
  ]

type t = { mutable rev : metric list }

let create () = { rev = [] }

let add t name unit value = t.rev <- { name; value; unit } :: t.rev

let metrics t = List.rev t.rev

let value_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_lines t =
  List.iter (fun m -> Printf.printf "%s %s %s\n" m.name (value_repr m.value) m.unit) (metrics t)

(* Why the result line cannot carry [wanted]: a metric not measured (or
   under another unit), a value that is not finite, or an end-to-end
   value that is not positive. *)
let problems t wanted =
  List.filter_map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.name = name) t.rev with
      | Some m when m.unit <> unit ->
          Some (Printf.sprintf "metric %s in %s, not %s" name m.unit unit)
      | Some m
        when (not (Float.is_finite m.value))
             || (m.value <= 0.0 && List.mem_assoc name end_to_end) ->
          Some (Printf.sprintf "metric %s = %g" name m.value)
      | Some _ -> None
      | None -> Some (Printf.sprintf "metric %s not measured" name))
    wanted

let find t name = List.find (fun m -> m.name = name) t.rev

let result_json t ~traced ~(checks : Meter.checks) =
  let wanted = if traced then per_layer else end_to_end in
  J.Obj
    [
      ("correct", J.Bool (checks.Meter.failed = 0));
      ("attempted", J.Int (max 1 checks.Meter.attempted));
      ("failed", J.Int checks.Meter.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit) ->
               let m = find t name in
               (name, J.Obj [ ("value", J.Float m.value); ("unit", J.String unit) ]))
             wanted) );
    ]

let kind name =
  if List.mem_assoc name end_to_end then "end_to_end"
  else if List.mem_assoc name per_layer then "per_layer"
  else "detail"

let metrics_json t =
  J.List
    (List.map
       (fun m ->
         J.Obj
           [
             ("name", J.String m.name);
             ("value", J.Float m.value);
             ("unit", J.String m.unit);
             ("kind", J.String (kind m.name));
           ])
       (metrics t))
