(* The traced run's instrumentation, all of it outside [lib/]: spans
   around the benchmark's own calls into each layer, and aggregated
   counters at the hot boundaries (coherence-model calls, scheduler
   choices), where a span per event would cost more than the event. *)

module Cohmodel = Ascy_mem.Cohmodel

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;  (** the layer call: "workload", "round", "explore", "schedule", ... *)
  label : string;  (** structure, scenario or workload the call was for *)
  start_ns : int;
  mutable end_ns : int;
}

let enabled = ref false
let spans : span list ref = ref [] (* the current traced pass's, newest first *)
let earlier : span list ref = ref [] (* earlier passes', kept for [spans_json] *)
let next_id = ref 0
let current = ref (-1)

let span ?(label = "") name f =
  if not !enabled then f ()
  else begin
    let s =
      { id = !next_id; parent = !current; name; label; start_ns = Meter.now_ns (); end_ns = 0 }
    in
    incr next_id;
    spans := s :: !spans;
    let saved = !current in
    current := s.id;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- Meter.now_ns ();
        current := saved)
      f
  end

(* Self time of every span named [name], summed, in seconds: each span's
   duration minus the time its direct children cover. *)
let self_s name =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((s.end_ns - s.start_ns) + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    !spans;
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        acc
        +. float_of_int
             (s.end_ns - s.start_ns - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id))
           *. 1e-9)
    0.0 !spans

(* Durations of every span named [name], in microseconds. *)
let durations_us name =
  List.filter_map
    (fun s -> if s.name = name then Some (float_of_int (s.end_ns - s.start_ns) *. 1e-3) else None)
    !spans

let spans_json () =
  let module J = Ascy_util.Json in
  let all = !spans @ !earlier in
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) max_int all in
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("parent", J.Int s.parent);
             ("name", J.String s.name);
             ("label", J.String s.label);
             ("start_ns", J.Int (s.start_ns - origin));
             ("end_ns", J.Int (s.end_ns - origin));
           ])
       all)

(* ------------------------------------------------------------------ *)
(* Counters at hot boundaries                                          *)
(* ------------------------------------------------------------------ *)

type counter = { mutable ns : int; mutable calls : int }

let coh_create = { ns = 0; calls = 0 }
let coh_access = { ns = 0; calls = 0 }
let coh_warm = { ns = 0; calls = 0 }
let choose = { ns = 0; calls = 0 }

let bump c t0 =
  c.ns <- c.ns + (Meter.now_ns () - t0);
  c.calls <- c.calls + 1

(* Start a traced pass: zero the counters, set earlier spans aside. *)
let reset () =
  earlier := !spans @ !earlier;
  spans := [];
  List.iter
    (fun c ->
      c.ns <- 0;
      c.calls <- 0)
    [ coh_create; coh_access; coh_warm; choose ]

let seconds c = float_of_int c.ns *. 1e-9

(* A coherence model that times every create/access/warm of [C] and is
   otherwise [C] — same name, same results — so it can be handed to the
   harness through its public [?model] argument. *)
module Timed (C : Cohmodel.S) : Cohmodel.S = struct
  include C

  let create ~platform =
    let t0 = Meter.now_ns () in
    let t = C.create ~platform in
    bump coh_create t0;
    t

  let access t cnt ~core ~socket kind line =
    let t0 = Meter.now_ns () in
    let r = C.access t cnt ~core ~socket kind line in
    bump coh_access t0;
    r

  let warm t ~nlines =
    let t0 = Meter.now_ns () in
    C.warm t ~nlines;
    bump coh_warm t0
end

let timed_model (m : Ascy_mem.Sim.model) : Ascy_mem.Sim.model =
  let module C = (val m : Cohmodel.S) in
  (module Timed (C))

(* Wrap a controlled scheduler so every choice is timed into [choose]. *)
let timed_scheduler (sched : Ascy_mem.Sim.scheduler) : Ascy_mem.Sim.scheduler =
 fun runnable ->
  let t0 = Meter.now_ns () in
  let tid = sched runnable in
  bump choose t0;
  tid
