external peak_rss_kb : bool -> int = "perfbench_peak_rss_kb" [@@noalloc]

let self_mb () = float_of_int (peak_rss_kb false) /. 1024.

let children_mb () = float_of_int (peak_rss_kb true) /. 1024.
