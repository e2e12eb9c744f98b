(* Seconds of CPU the calling thread, so the calling domain, has used
   (cputime.c).  Every time the benchmark reports starts from this clock;
   see Calib for why it is scaled. *)
external thread_s : unit -> float = "perfbench_thread_cpu_s"
