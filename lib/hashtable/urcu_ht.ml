(** RCU-based hash table (Table 1 "urcu", after userspace-RCU's hash
    table, Desnoyers et al.).

    Readers run inside RCU read-side critical sections and traverse
    immutable bucket chains without locks.  Writers lock the bucket,
    republish a copied chain, and — the expensive part the paper calls
    out — every successful removal calls [synchronize] to wait for all
    ongoing readers before the victim can be freed.  The table resizes by
    doubling when chains grow.

    {!Make_ssmem} is the paper's re-engineered variant (§3): identical
    except removals hand victims to SSMEM's epoch reclamation instead of
    waiting for a grace period, moving the design closer to ASCY4. *)

module Inner (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module Rcu = Ascy_rcu.Rcu.Make (Mem)
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v chain = Nil | Cons of { key : int; value : 'v; line : Mem.line; next : 'v chain }

  type 'v table = { slots : 'v chain Mem.r array; locks : L.t array; mask : int }

  type 'v t = {
    tbl : 'v table Mem.r;
    rcu : Rcu.t;
    ssmem : S.t;
    resize_lock : L.t;
    defer_rcu : bool; (* wait for a grace period on removal? *)
    rof : bool;
  }

  let mk_table n =
    {
      slots = Array.init n (fun _ -> Mem.make_fresh Nil);
      locks = Array.init n (fun _ -> L.create_fresh ());
      mask = n - 1;
    }

  let create_inner ~defer_rcu ?hint ?(read_only_fail = true) () =
    let n = Hash.buckets hint in
    {
      tbl = Mem.make_fresh (mk_table n);
      rcu = Rcu.create ();
      ssmem = S.create ();
      resize_lock = L.create_fresh ();
      defer_rcu;
      rof = read_only_fail;
    }

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
    Rcu.read_lock t.rcu;
    let tbl = Mem.get t.tbl in
    let res = chain_find (Mem.get tbl.slots.(Hash.bucket k tbl.mask)) k in
    Rcu.read_unlock t.rcu;
    res

  let chain_len c =
    let rec go c acc = match c with Nil -> acc | Cons n -> go n.next (acc + 1) in
    go c 0

  (* Lock the bucket for [k] in the current table, retrying if a resize
     swapped the table while we were acquiring. *)
  let rec lock_bucket t k =
    let tbl = Mem.get t.tbl in
    let i = Hash.bucket k tbl.mask in
    L.acquire tbl.locks.(i);
    if Mem.get t.tbl == tbl then (tbl, i)
    else begin
      L.release tbl.locks.(i);
      Mem.emit E.restart;
      lock_bucket t k
    end

  let resize t =
    if L.try_acquire t.resize_lock then begin
      let old = Mem.get t.tbl in
      (* take every bucket lock, in order, to freeze writers *)
      Array.iter L.acquire old.locks;
      if Mem.get t.tbl == old then begin
        let fresh = mk_table ((old.mask + 1) * 2) in
        Array.iter
          (fun slot ->
            let rec rehash c =
              match c with
              | Nil -> ()
              | Cons n ->
                  let i = Hash.bucket n.key fresh.mask in
                  Mem.set fresh.slots.(i) (cons n.key n.value (Mem.get fresh.slots.(i)));
                  rehash n.next
            in
            rehash (Mem.get slot))
          old.slots;
        Mem.set t.tbl fresh
      end;
      Array.iter L.release old.locks;
      (* grace period before the old table and chains can be retired *)
      Rcu.synchronize t.rcu;
      L.release t.resize_lock
    end

  (* Unlocked parse: the bucket chain is immutable, so a plain traversal
     decides presence without synchronizing (read-only fail, ASCY3). *)
  let chain_has t k =
    let tbl = Mem.get t.tbl in
    chain_find (Mem.get tbl.slots.(Hash.bucket k tbl.mask)) k <> None

  let insert t k v =
    Mem.emit E.parse;
    let quick_fail = t.rof && chain_has t k in
    Mem.emit E.parse_end;
    if quick_fail then false
    else begin
    let tbl, i = lock_bucket t k in
    let c = Mem.get tbl.slots.(i) in
    if chain_find c k <> None then begin
      L.release tbl.locks.(i);
      false
    end
    else begin
      Mem.set tbl.slots.(i) (cons k v c);
      let long = chain_len c >= 4 in
      L.release tbl.locks.(i);
      if long then resize t;
      true
    end
    end

  let remove t k =
    Mem.emit E.parse;
    let quick_fail = t.rof && not (chain_has t k) in
    Mem.emit E.parse_end;
    if quick_fail then false
    else begin
    let tbl, i = lock_bucket t k in
    let c = Mem.get tbl.slots.(i) in
    if chain_find c k = None then begin
      L.release tbl.locks.(i);
      false
    end
    else begin
      (* copy the chain without the victim *)
      let rec rebuild c =
        match c with
        | Nil -> Nil
        | Cons n -> if n.key = k then n.next else cons n.key n.value (rebuild n.next)
      in
      Mem.set tbl.slots.(i) (rebuild c);
      L.release tbl.locks.(i);
      if t.defer_rcu then Rcu.synchronize t.rcu (* wait for ongoing readers *)
      else S.free t.ssmem k (* epoch-deferred instead *);
      true
    end
    end

  let size t =
    let tbl = Mem.get t.tbl in
    Array.fold_left (fun acc slot -> acc + chain_len (Mem.get slot)) 0 tbl.slots

  let validate t =
    let tbl = Mem.get t.tbl in
    let seen = Hashtbl.create 64 in
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i slot ->
        let rec go c =
          match c with
          | Nil -> ()
          | Cons n ->
              if Hashtbl.mem seen n.key then ok := Error "duplicate key"
              else Hashtbl.replace seen n.key ();
              if Hash.bucket n.key tbl.mask <> i then ok := Error "key in wrong bucket";
              go n.next
        in
        go (Mem.get slot))
      tbl.slots;
    !ok

  let op_done t = S.quiesce t.ssmem
end

module Make (Mem : Ascy_mem.Memory.S) = struct
  include Inner (Mem)

  let name = "ht-urcu"
  let create ?hint ?read_only_fail () = create_inner ~defer_rcu:true ?hint ?read_only_fail ()
end

(** The ASCY4-leaning re-engineering: SSMEM instead of grace periods. *)
module Make_ssmem (Mem : Ascy_mem.Memory.S) = struct
  include Inner (Mem)

  let name = "ht-urcu-ssmem"
  let create ?hint ?read_only_fail () = create_inner ~defer_rcu:false ?hint ?read_only_fail ()
end
