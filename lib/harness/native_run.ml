(** Run a CSDS workload natively on OCaml domains and measure wall-clock
    throughput.  On a single-core host this measures per-operation cost
    and scheduler interleaving rather than parallel speedup; the
    simulator ({!Sim_run}) is the instrument for scalability shapes. *)

type result = {
  algorithm : string;
  nthreads : int;
  ops : int;
  seconds : float;
  throughput_mops : float;
  final_size : int;
}

let run ?(seed = 1) (module A : Ascy_core.Set_intf.MAKER) ~nthreads ~(workload : Workload.t)
    ~duration () =
  let module M = A (Ascy_mem.Mem_native) in
  let t = M.create ~hint:workload.Workload.initial () in
  let rng0 = Ascy_util.Xorshift.create (seed * 31 + 7) in
  let filled = ref 0 in
  while !filled < workload.Workload.initial do
    if M.insert t (Workload.pick_key workload rng0) 0 then incr filled
  done;
  let stop = Atomic.make false in
  let go = Atomic.make false in
  let ready = Atomic.make 0 in
  let counts = Array.make nthreads 0 in
  let body tid () =
    let rng = Ascy_util.Xorshift.create ((seed * 7919) + (tid * 104729) + 13) in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    (* at least one operation per domain, however late it is scheduled *)
    let rec loop n =
      let k = Workload.pick_key workload rng in
      (match Workload.pick_op workload rng with
      | Workload.Search -> ignore (M.search t k)
      | Workload.Insert -> ignore (M.insert t k tid)
      | Workload.Remove -> ignore (M.remove t k));
      M.op_done t;
      if Atomic.get stop then n + 1 else loop (n + 1)
    in
    counts.(tid) <- loop 0
  in
  let domains = Array.init nthreads (fun tid -> Domain.spawn (body tid)) in
  (* the clock starts once every domain is running *)
  while Atomic.get ready < nthreads do
    Unix.sleepf 1e-4
  done;
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  Unix.sleepf duration;
  Atomic.set stop true;
  Array.iter Domain.join domains;
  let dt = Unix.gettimeofday () -. t0 in
  let ops = Array.fold_left ( + ) 0 counts in
  {
    algorithm = M.name;
    nthreads;
    ops;
    seconds = dt;
    throughput_mops = float_of_int ops /. dt /. 1e6;
    final_size = M.size t;
  }
