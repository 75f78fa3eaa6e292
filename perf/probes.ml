(* Layer probes: each layer timed directly through its public functions
   on a synthetic input, so a change to one layer shows here even when
   the workloads' end-to-end numbers blur it.  The inputs are fixed by
   the seed; every probe reports a median over repetitions. *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module X = Ascy_util.Xorshift
module Nat = Ascy_mem.Mem_native
module Engine = Ascy_harness.Engine
module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Par_explore = Ascy_sct.Par_explore
module Router = Ascy_service.Router
module Queue_nat = Ascy_service.Shard_queue.Make (Nat)

let platform = P.xeon20

(* Median over [reps] of the wall time of [f ()] divided by [per], in ns. *)
let median_ns ~reps ~per f =
  Meter.median
    (List.init reps (fun _ ->
         let (), dt = Meter.time f in
         dt *. 1e9 /. float_of_int per))

(* ---------------------------------------------------------------- *)
(* Cohmodel                                                           *)
(* ---------------------------------------------------------------- *)

let coh_create_us model ~reps =
  median_ns ~reps ~per:1 (fun () ->
      ignore (Sys.opaque_identity (Ascy_mem.Cohmodel.instantiate model ~platform)))
  /. 1e3

let coh_create_words model =
  let w0 = Meter.allocated_words () in
  ignore (Sys.opaque_identity (Ascy_mem.Cohmodel.instantiate model ~platform));
  Meter.allocated_words () -. w0

(* A synthetic R/W/RMW stream (70/20/10) over 20 cores x 4096 warmed
   lines, fed straight to [C.access]. *)
let coh_access_ns (module C : Ascy_mem.Cohmodel.S) ~seed ~n ~reps =
  let nlines = 4096 in
  let t = C.create ~platform in
  for l = 0 to nlines - 1 do
    C.on_new_line t l
  done;
  C.warm t ~nlines;
  let rng = X.create seed in
  let cores = Array.init n (fun _ -> X.below rng platform.P.cores) in
  let sockets = Array.map (P.socket_of platform) cores in
  let lines = Array.init n (fun _ -> X.below rng nlines) in
  let kinds =
    Array.init n (fun _ ->
        match X.below rng 10 with 0 -> Sim.Rmw | 1 | 2 -> Sim.Write | _ -> Sim.Read)
  in
  let cnt = Ascy_mem.Simtypes.fresh_counters () in
  median_ns ~reps ~per:n (fun () ->
      for i = 0 to n - 1 do
        ignore (C.access t cnt ~core:cores.(i) ~socket:sockets.(i) kinds.(i) lines.(i))
      done)

(* ---------------------------------------------------------------- *)
(* Engine / Sim                                                       *)
(* ---------------------------------------------------------------- *)

(* One empty 3-thread session (an explored schedule's shape) plus warm. *)
let session_us model ~reps =
  let cfg = { (Engine.default ~platform ~nthreads:3) with Engine.model } in
  median_ns ~reps ~per:1 (fun () -> Engine.with_session cfg (fun s -> Sim.warm s.Engine.sim))
  /. 1e3

type loop = Free | Controlled | Faults

(* Host ns per simulator decision: 4 threads each touching its own line
   [n] times under [flat], so the model costs next to nothing. *)
let decision_ns loop ~n ~reps =
  let round_robin =
    let next = ref 0 in
    fun r ->
      incr next;
      Sim.runnable_tid r (!next mod Sim.runnable_count r)
  in
  let cfg =
    {
      (Engine.default ~platform ~nthreads:4) with
      Engine.model = Sim.model_of_name "flat";
      scheduler = (if loop = Controlled then Some round_robin else None);
      (* an event that never comes due still selects the fault-aware loop *)
      faults =
        (if loop = Faults then [ { Sim.fe_at = max_int; fe_tid = 0; fe_fault = Sim.F_stall 0 } ]
         else []);
    }
  in
  Meter.median
    (List.init reps (fun _ ->
         Engine.with_session cfg (fun s ->
             let lines = Array.init 4 (fun _ -> Sim.Mem.new_line ()) in
             Sim.warm s.Engine.sim;
             let body tid () =
               for _ = 1 to n do
                 Sim.Mem.touch lines.(tid)
               done
             in
             let _, dt = Meter.time (fun () -> Engine.run s (Array.init 4 body)) in
             dt *. 1e9 /. float_of_int (Sim.decisions s.Engine.sim))))

(* ---------------------------------------------------------------- *)
(* Mem_native                                                         *)
(* ---------------------------------------------------------------- *)

(* The loops are written out, not passed as closures: an indirect call
   would cost as much as [get] itself. *)
let native_ns ~n ~reps =
  let r = Nat.make () 0 in
  let ns = median_ns ~reps ~per:n in
  [
    ( "get",
      ns (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (Nat.get r))
          done) );
    ( "set",
      ns (fun () ->
          for i = 1 to n do
            Nat.set r i
          done) );
    ( "cas",
      ns (fun () ->
          for _ = 1 to n do
            let v = Nat.get r in
            ignore (Nat.cas r v (v + 1))
          done) );
    ( "faa",
      ns (fun () ->
          for _ = 1 to n do
            ignore (Nat.fetch_and_add r 1)
          done) );
  ]

(* One k-CAS over [cells] that bumps every cell it read; fails when
   another domain got in between. *)
let kcas_bump cells =
  Nat.kcas
    (Array.to_list
       (Array.map
          (fun c ->
            let v = Nat.get c in
            Nat.kcas_op c ~expected:v ~desired:(v + 1))
          cells))

let kcas_ns k ~n ~reps =
  let cells = Array.init k (fun _ -> Nat.make () 0) in
  median_ns ~reps ~per:n (fun () ->
      for _ = 1 to n do
        ignore (kcas_bump cells)
      done)

(* [attempt] run [n] times on each of 2 domains, this one and a spawned
   one, that start together (each waits until both are running): ns per
   attempt (per domain) and the share of attempts that succeeded. *)
let contended_once ~n attempt =
  let ready = Atomic.make 0 in
  let ok = Array.make 2 0 in
  let body d () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let t0 = Meter.now_ns () in
    for _ = 1 to n do
      if attempt () then ok.(d) <- ok.(d) + 1
    done;
    Meter.since_s t0
  in
  let other = Domain.spawn (body 1) in
  let dt = body 0 () in
  let dt = Float.max dt (Domain.join other) in
  (dt *. 1e9 /. float_of_int n, float_of_int (ok.(0) + ok.(1)) /. float_of_int (2 * n))

(* The OS may time-slice both domains on one core for a whole try, which
   reads as a success ratio of 1 and measures no contention at all: of
   [tries] tries (ns, ratio, extra), keep the one that succeeded least. *)
let most_contended tries =
  List.fold_left
    (fun ((_, r0, _) as best) ((_, r, _) as t) -> if r < r0 then t else best)
    (List.hd tries) tries

let cas_contended ~tries ~n =
  let cell = Nat.make () 0 in
  most_contended
    (List.init tries (fun _ ->
         let ns, ratio =
           contended_once ~n (fun () ->
               let v = Nat.get cell in
               Nat.cas cell v (v + 1))
         in
         (ns, ratio, ())))

(* Also k-CAS phase-1 acquisitions per contended kcas4 attempt, counted
   with [Mem_native.kdx_acquire_hook]: above 4 means helpers ran. *)
let kcas4_contended ~tries ~n =
  let cells = Array.init 4 (fun _ -> Nat.make () 0) in
  let acquires = Array.make Nat.max_threads_limit 0 in
  let saved = !Nat.kdx_acquire_hook in
  (Nat.kdx_acquire_hook :=
     fun _ ->
       let me = Nat.self () in
       acquires.(me) <- acquires.(me) + 1);
  Fun.protect
    ~finally:(fun () -> Nat.kdx_acquire_hook := saved)
    (fun () ->
      most_contended
        (List.init tries (fun _ ->
             Array.fill acquires 0 (Array.length acquires) 0;
             let ns, ratio = contended_once ~n (fun () -> kcas_bump cells) in
             (ns, ratio, float_of_int (Array.fold_left ( + ) 0 acquires) /. float_of_int (2 * n)))))

(* ---------------------------------------------------------------- *)
(* Service layers                                                     *)
(* ---------------------------------------------------------------- *)

let route_ns ~n ~reps =
  let acc = ref 0 in
  let ns =
    median_ns ~reps ~per:n (fun () ->
        for k = 1 to n do
          acc := !acc + Router.route Router.Mult ~nshards:8 k
        done)
  in
  ignore (Sys.opaque_identity !acc);
  ns

(* enqueue + peek + commit of one request on one domain *)
let queue_roundtrip_ns ~n ~reps =
  let q = Queue_nat.create ~cap:32 in
  median_ns ~reps ~per:n (fun () ->
      for i = 1 to n do
        ignore (Queue_nat.enqueue q i);
        match Queue_nat.peek q with
        | Some _ -> Queue_nat.commit q
        | None -> failwith "shard queue lost a request"
      done)

(* ---------------------------------------------------------------- *)
(* Par_explore                                                        *)
(* ---------------------------------------------------------------- *)

(* Wall-clock speedup of the partitioned explorer at 2 domains over 1 on
   complete flat explorations; the explored space must not change. *)
let par_speedup ~seed ~structures ~(checks : Meter.checks) =
  let model = Sim.model_of_name "flat" in
  let explore domains =
    List.map
      (fun name ->
        let spec = Workloads.explore_spec ~seed name in
        let mk = Workloads.maker name in
        let r, dt =
          Meter.time (fun () ->
              Par_explore.explore ~domains
                ~run:(fun ~sched -> Sct.run_once ~model mk spec ~sched)
                ())
        in
        ((r.Par_explore.p_report.Explorer.schedules, r.Par_explore.p_report.Explorer.steps), dt))
      structures
  in
  let one = explore 1 and two = explore 2 in
  Meter.check checks ~units:0 (List.map fst one = List.map fst two)
    (lazy "par_explore: 1 and 2 domains explored different spaces");
  let wall l = List.fold_left (fun a (_, dt) -> a +. dt) 0.0 l in
  wall one /. wall two

(* ---------------------------------------------------------------- *)

let run ~(scale : Workloads.scale) ~seed ~(ledger : Ledger.t) ~checks =
  let full = scale = Workloads.Full in
  let size f s = if full then f else s in
  let layer = Ledger.add ledger in
  let mesi = Sim.model_of_name "mesi" and flat = Sim.model_of_name "flat" in
  layer "coh_mesi.create_us" "us" (coh_create_us mesi ~reps:(size 40 3));
  layer "coh_mesi.create_words" "words" (coh_create_words mesi);
  let n = size 200_000 2_000 and reps = size 5 1 in
  layer "coh_mesi.access_ns" "ns" (coh_access_ns mesi ~seed ~n ~reps);
  layer "coh_flat.access_ns" "ns" (coh_access_ns flat ~seed ~n ~reps);
  layer "engine.session_us.mesi" "us" (session_us mesi ~reps:(size 40 3));
  layer "engine.session_us.flat" "us" (session_us flat ~reps:(size 400 3));
  let n = size 50_000 500 and reps = size 3 1 in
  layer "sim.decision_ns.free" "ns" (decision_ns Free ~n ~reps);
  layer "sim.decision_ns.controlled" "ns" (decision_ns Controlled ~n ~reps);
  layer "sim.decision_ns.faults" "ns" (decision_ns Faults ~n ~reps);
  List.iter
    (fun (op, ns) -> layer ("mem_native." ^ op ^ "_ns") "ns" ns)
    (native_ns ~n:(size 2_000_000 10_000) ~reps:(size 5 1));
  List.iter
    (fun k ->
      layer (Printf.sprintf "mem_native.kcas%d_ns" k) "ns"
        (kcas_ns k ~n:(size 50_000 500) ~reps:(size 3 1)))
    [ 2; 4; 8 ];
  let tries = size 3 1 in
  let ns, ratio, () = cas_contended ~tries ~n:(size 500_000 5_000) in
  layer "mem_native.cas_contended_ns" "ns" ns;
  layer "mem_native.cas_success_ratio" "ratio" ratio;
  let ns, ratio, acquires = kcas4_contended ~tries ~n:(size 50_000 1_000) in
  layer "mem_native.kcas4_contended_ns" "ns" ns;
  layer "mem_native.kcas4_success_ratio" "ratio" ratio;
  layer "mem_native.kcas4_acquires_per_op" "count" acquires;
  layer "router.route_ns" "ns" (route_ns ~n:(size 2_000_000 10_000) ~reps:(size 5 1));
  layer "shard_queue.roundtrip_ns" "ns"
    (queue_roundtrip_ns ~n:(size 1_000_000 5_000) ~reps:(size 5 1));
  layer "par_explore.speedup_2d" "x"
    (par_speedup ~seed ~checks
       ~structures:(size [ "ll-harris-opt"; "ht-harris"; "bst-natarajan" ] [ "ll-pathcas" ]))
