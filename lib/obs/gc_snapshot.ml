type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

let take () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
  }

let diff ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    heap_words = after.heap_words;
    top_heap_words = after.top_heap_words;
  }

let to_string t =
  Printf.sprintf
    "  minor words       %14.0f\n\
     \  promoted words    %14.0f\n\
     \  major words       %14.0f\n\
     \  minor collections %14d\n\
     \  major collections %14d\n\
     \  compactions       %14d\n\
     \  heap words        %14d\n\
     \  top heap words    %14d"
    t.minor_words t.promoted_words t.major_words t.minor_collections t.major_collections
    t.compactions t.heap_words t.top_heap_words
