(** Striped-lock hash table in the style of Java's ConcurrentHashMap
    (Table 1 "java"; Lea's util.concurrent, segment design).

    A fixed array of 512 segments (the paper's 512 locks), each owning its
    own bucket table, element count and lock.  Searches are lock-free:
    they read the segment's table pointer and walk immutable chains.
    Updates lock only their segment; a segment whose load factor exceeds
    the threshold doubles its own table ("fine-grained resizing", which is
    also what spreads the table across memory and saves the Opteron runs
    in Figure 2).

    [read_only_fail] applies ASCY3: an update first runs a plain search
    and returns without locking when it cannot succeed — the paper's
    "java" vs "java-no" comparison of Figure 6, worth up to 12.5%
    throughput. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module E = Ascy_mem.Event

  let n_segments = 512
  let seg_shift = 9 (* log2 n_segments *)

  type 'v chain = Nil | Cons of { key : int; value : 'v; line : Mem.line; next : 'v chain }

  type 'v segment = {
    lock : L.t;
    table : 'v chain Mem.r array Mem.r;
    count : int Mem.r;
  }

  (* The segments live in [n_segments / block] blocks of [block]: OCaml
     puts an array over 256 words straight in the major heap, and one
     built from a young first element forces a minor collection, so a
     single 512-segment array made every create pay one. *)
  let block = 32
  let block_shift = 5 (* log2 block *)

  type 'v t = { segments : 'v segment array array; rof : bool }

  let name = "ht-java"

  let mk_table n = Array.init n (fun _ -> Mem.make_fresh Nil)

  let create ?hint ?(read_only_fail = true) () =
    let hint = Hash.size_hint hint in
    let per_seg = Hash.pow2_at_least (max 1 (hint / n_segments)) 1 in
    {
      segments =
        Array.init (n_segments / block) (fun _ ->
            Array.init block (fun _ ->
                let line = Mem.new_line () in
                {
                  lock = L.create line;
                  table = Mem.make line (mk_table per_seg);
                  count = Mem.make line 0;
                }));
      rof = read_only_fail;
    }

  let segment t k =
    let i = Hash.mix k land (n_segments - 1) in
    t.segments.(i lsr block_shift).(i land (block - 1))

  let iter_segments f t = Array.iter (Array.iter f) t.segments

  let slot_of tbl k = Hash.mix k lsr seg_shift land (Array.length tbl - 1)

  let rec chain_find c k =
    match c with
    | Nil -> None
    | Cons n ->
        Mem.touch n.line;
        if n.key = k then Some n.value else chain_find n.next k

  let cons k v next =
    let line = Mem.new_line () in
    Cons { key = k; value = v; line; next }

  let search t k =
    let seg = segment t k in
    let tbl = Mem.get seg.table in
    chain_find (Mem.get tbl.(slot_of tbl k)) k

  (* Double this segment's table; called with the segment lock held. *)
  let grow seg =
    let old = Mem.get seg.table in
    let fresh = mk_table (2 * Array.length old) in
    Array.iter
      (fun slot ->
        let rec rehash c =
          match c with
          | Nil -> ()
          | Cons n ->
              let i = slot_of fresh n.key in
              Mem.set fresh.(i) (cons n.key n.value (Mem.get fresh.(i)));
              rehash n.next
        in
        rehash (Mem.get slot))
      old;
    Mem.set seg.table fresh

  let insert t k v =
    Mem.emit E.parse;
    let quick_fail = t.rof && search t k <> None in
    Mem.emit E.parse_end;
    if quick_fail then false
    else begin
      let seg = segment t k in
      L.acquire seg.lock;
      let tbl = Mem.get seg.table in
      let i = slot_of tbl k in
      let c = Mem.get tbl.(i) in
      if chain_find c k <> None then begin
        L.release seg.lock;
        false
      end
      else begin
        Mem.set tbl.(i) (cons k v c);
        let n = Mem.get seg.count + 1 in
        Mem.set seg.count n;
        if n > 2 * Array.length tbl then grow seg;
        L.release seg.lock;
        true
      end
    end

  let remove t k =
    Mem.emit E.parse;
    let quick_fail = t.rof && search t k = None in
    Mem.emit E.parse_end;
    if quick_fail then false
    else begin
      let seg = segment t k in
      L.acquire seg.lock;
      let tbl = Mem.get seg.table in
      let i = slot_of tbl k in
      let c = Mem.get tbl.(i) in
      if chain_find c k = None then begin
        L.release seg.lock;
        false
      end
      else begin
        let rec rebuild c =
          match c with
          | Nil -> Nil
          | Cons n -> if n.key = k then n.next else cons n.key n.value (rebuild n.next)
        in
        Mem.set tbl.(i) (rebuild c);
        Mem.set seg.count (Mem.get seg.count - 1);
        L.release seg.lock;
        true
      end
    end

  let size t =
    let n = ref 0 in
    iter_segments (fun seg -> n := !n + Mem.get seg.count) t;
    !n

  let validate t =
    let seen = Hashtbl.create 64 in
    let ok = ref (Ok ()) in
    iter_segments
      (fun seg ->
        let tbl = Mem.get seg.table in
        let counted = ref 0 in
        Array.iteri
          (fun i slot ->
            let rec go c =
              match c with
              | Nil -> ()
              | Cons n ->
                  incr counted;
                  if Hashtbl.mem seen n.key then ok := Error "duplicate key"
                  else Hashtbl.replace seen n.key ();
                  if slot_of tbl n.key <> i then ok := Error "key in wrong slot";
                  go n.next
            in
            go (Mem.get slot))
          tbl;
        if !counted <> Mem.get seg.count then ok := Error "segment count mismatch")
      t;
    !ok

  let op_done _ = ()
end
