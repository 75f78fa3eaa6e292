(** The catalogue of every CSDS implementation in ASCYLIB-OCaml —
    Table 1 of the paper plus the ASCY re-engineered variants, the two
    from-scratch designs (CLHT, BST-TK), and the PathCAS family built on
    the multi-word-CAS memory layer ({!Ascy_mem.Memory.S.kcas}).

    Each entry carries the synchronization class, a short description
    (Table 1's wording), and the ASCY compliance vector under the default
    configuration ([read_only_fail = true] where applicable). *)

open Ascy_core.Ascy

type entry = {
  name : string;
  family : family;
  sync : sync;
  ascy : compliance;
  asynchronized : bool;  (** sequential upper bound — incorrect if shared *)
  progress : progress;
      (** declared crash-tolerance (Table 1): does a thread crash-stopped
          mid-operation block the others?  Checked against observed
          behavior by the chaos sweep ([Ascy_harness.Fault_run]). *)
  budget : float option;
      (** per-entry override of the family's {!ascy4_budget} *)
  desc : string;
  maker : (module Ascy_core.Set_intf.MAKER);
}

let e name family sync ascy ?(asynchronized = false) ?progress ?budget desc maker =
  let progress =
    match progress with Some p -> p | None -> progress_of_sync sync
  in
  { name; family; sync; ascy; asynchronized; progress; budget; desc; maker }

let c a1 a2 a3 a4 = { a1; a2; a3; a4 }

let linked_lists =
  [
    e "ll-async" Linked_list Sequential full ~asynchronized:true
      "sequential linked list; incorrect asynchronized upper bound"
      (module Ascy_linkedlist.Seq_list.Make : Ascy_core.Set_intf.MAKER);
    e "ll-coupling" Linked_list Fully_lock_based none
      "hand-over-hand locking while parsing the list"
      (module Ascy_linkedlist.Coupling.Make);
    e "ll-pugh" Linked_list Lock_based full
      "optimistic parse; updates lock and revalidate in place; removals use pointer reversal"
      (module Ascy_linkedlist.Pugh.Make);
    e "ll-lazy" Linked_list Lock_based full
      "two-step deletion (mark, then unlink); searches ignore marks"
      (module Ascy_linkedlist.Lazy_list.Make);
    e "ll-copy" Linked_list Lock_based (c true true true false)
      "copy-on-write array behind a global lock (CopyOnWriteArrayList)"
      (module Ascy_linkedlist.Copy_list.Make);
    e "ll-harris" Linked_list Lock_free (c false false true true)
      "mark with CAS, delete with a second CAS; searches clean up and restart"
      (module Ascy_linkedlist.Harris.Make);
    e "ll-michael" Linked_list Lock_free (c false false true true)
      "harris refactored for easier memory management (one-at-a-time unlinks)"
      (module Ascy_linkedlist.Michael.Make);
    e "ll-harris-opt" Linked_list Lock_free full
      "harris re-engineered with ASCY1-2: wait-free search, never-restarting parse"
      (module Ascy_linkedlist.Harris_opt.Make);
    e "ll-pathcas" Linked_list Lock_free full
      "PathCAS: version-stamped parse; one k-CAS validates the path and swings the pointer"
      (module Ascy_linkedlist.Pathcas_ll.Make);
  ]

let hash_tables =
  [
    e "ht-async" Hash_table Sequential full ~asynchronized:true
      "sequential hash table; incorrect asynchronized upper bound"
      (module Ascy_hashtable.Makers.Seq : Ascy_core.Set_intf.MAKER);
    e "ht-coupling" Hash_table Fully_lock_based none "one coupling list per bucket"
      (module Ascy_hashtable.Makers.Coupling);
    e "ht-pugh" Hash_table Lock_based full ~budget:6.0
      "one pugh list per bucket"
      (* pointer-reversal removals store back along the search path, the
         same inherent cost its linked-list sibling pays (ratio ~5.3),
         so it carries the linked-list ASCY4 budget *)
      (module Ascy_hashtable.Makers.Pugh);
    e "ht-lazy" Hash_table Lock_based full "one lazy list per bucket"
      (module Ascy_hashtable.Makers.Lazy);
    e "ht-copy" Hash_table Lock_based (c true true true false) "one copy-on-write list per bucket"
      (module Ascy_hashtable.Makers.Copy);
    e "ht-urcu" Hash_table Lock_based (c false true true false)
      "userspace-RCU style: removals wait for all ongoing readers; resizable"
      (module Ascy_hashtable.Urcu_ht.Make);
    e "ht-urcu-ssmem" Hash_table Lock_based (c false true true true)
      "urcu re-engineered: SSMEM epochs instead of grace-period waits (closer to ASCY4)"
      (module Ascy_hashtable.Urcu_ht.Make_ssmem);
    e "ht-java" Hash_table Lock_based full
      "ConcurrentHashMap-style: 512 segments, lock-free reads, per-segment resizing"
      (module Ascy_hashtable.Java_ht.Make);
    e "ht-tbb" Hash_table Fully_lock_based none
      "TBB-style: reader-writer lock per bucket (even searches synchronize)"
      (module Ascy_hashtable.Tbb_ht.Make);
    e "ht-harris" Hash_table Lock_free full "one (ASCY-optimised) harris list per bucket"
      (module Ascy_hashtable.Makers.Harris);
    e "ht-clht-lb" Hash_table Lock_based full
      "NEW (paper 6.1): cache-line buckets, in-place updates, at most one line transfer"
      (module Ascy_hashtable.Clht_lb.Make);
    e "ht-clht-lf" Hash_table Lock_free full
      "NEW (paper 6.1): lock-free CLHT with snapshot_t versioned slot map"
      (module Ascy_hashtable.Clht_lf.Make);
  ]

let skip_lists =
  [
    e "sl-async" Skip_list Sequential full ~asynchronized:true
      "sequential skip list; incorrect asynchronized upper bound"
      (module Ascy_skiplist.Seq_sl.Make : Ascy_core.Set_intf.MAKER);
    e "sl-pugh" Skip_list Lock_based full
      "several levels of pugh lists; parses toward the target without locking"
      (module Ascy_skiplist.Pugh_sl.Make);
    e "sl-herlihy" Skip_list Lock_based full
      "optimistic: find, lock preds at all levels, validate, update"
      (module Ascy_skiplist.Herlihy_sl.Make);
    e "sl-fraser" Skip_list Lock_free (c false false true true)
      "CAS at each level; search restarts on marked nodes or failed clean-ups"
      (module Ascy_skiplist.Fraser.Make);
    e "sl-fraser-opt" Skip_list Lock_free full
      "fraser re-engineered with ASCY1-2 (wait-free search, local-retry parse)"
      (module Ascy_skiplist.Fraser_opt.Make);
  ]

let bsts =
  [
    e "bst-async-int" Bst Sequential full ~asynchronized:true
      "sequential internal BST; incorrect asynchronized upper bound"
      (module Ascy_bst.Seq_int_bst.Make : Ascy_core.Set_intf.MAKER);
    e "bst-async-ext" Bst Sequential full ~asynchronized:true
      "sequential external BST; incorrect asynchronized upper bound"
      (module Ascy_bst.Seq_ext_bst.Make);
    e "bst-bronson" Bst Lock_based (c false false false false)
      "partially external; optimistic versions; searches can block on concurrent updates"
      (module Ascy_bst.Bronson.Make);
    e "bst-drachsler" Bst Lock_based (c true true true false)
      "internal with logical ordering (pred/succ overlay); >= 3 locks per removal"
      (module Ascy_bst.Drachsler.Make);
    e "bst-ellen" Bst Lock_free (c true true true false)
      "external; updates flag nodes with info records and help pending operations"
      (module Ascy_bst.Ellen.Make);
    e "bst-howley" Bst Lock_free (c false false true false)
      "internal; all three operations help and may restart"
      (module Ascy_bst.Howley.Make);
    e "bst-natarajan" Bst Lock_free full
      "external; edge flags/tags minimize atomics; optimistic parse"
      (module Ascy_bst.Natarajan.Make);
    e "bst-tk" Bst Lock_based full
      "NEW (paper 6.2): external with per-edge ticket locks; 1 lock per insert, 2 per remove"
      (module Ascy_bst.Bst_tk.Make);
    e "bst-pathcas" Bst Lock_free full
      "PathCAS external BST: stamped routers; one k-CAS per insert (2 words) or splice (3 words)"
      (module Ascy_bst.Pathcas_bst.Make);
  ]

(** All 35 implementations, grouped as in Table 1. *)
let all = linked_lists @ hash_tables @ skip_lists @ bsts

let by_name name =
  match List.find_opt (fun x -> x.name = name) all with
  | Some x -> x
  | None -> invalid_arg ("unknown algorithm: " ^ name)

let by_family f = List.filter (fun x -> x.family = f) all

(** The asynchronized (sequential) baseline of a family. *)
let async_of = function
  | Linked_list -> by_name "ll-async"
  | Hash_table -> by_name "ht-async"
  | Skip_list -> by_name "sl-async"
  | Bst -> by_name "bst-async-ext"

(** ASCY4 store budget per family: the observed (weighted)
    stores-per-successful-update of a compliant algorithm may exceed its
    family's asynchronized baseline by at most this factor (paper §5:
    "close to those of its sequential counterpart").  Families whose
    baselines are leaner (a linked-list insert is two stores) tolerate a
    proportionally larger factor than the write-richer trees.  Checked by
    [Ascy_harness.Ascy_check]; {!entry.budget} overrides per entry. *)
let ascy4_budget = function
  | Linked_list -> 6.0
  | Hash_table -> 5.0
  | Skip_list -> 5.0
  | Bst -> 4.0

let budget_of entry =
  match entry.budget with Some b -> b | None -> ascy4_budget entry.family
