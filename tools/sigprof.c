// SIGPROF program-counter sampler, preloaded by tools/profile.sh.
//
// Every millisecond of process CPU time (ITIMER_PROF, any thread) the
// interrupted thread records its PC. At exit each process writes
// $EXPLFRAME_PROFILE_OUT.<pid>: its executable's path, then one line
// "<samples> <where>" per distinct PC, where <where> is one of
//
//   <decimal>        a link-time address of that executable
//   @<symbol> <lib>  inside an exported (dynamic) symbol of a shared
//                    object, mangled as in its symbol table
//   [<lib>]          inside a shared object (or the vDSO) but in no
//                    exported symbol: IFUNC variants, static functions
//   [unknown]        in no loaded object
//
// Shared-object PCs are resolved with dladdr1 here, in the exit writer,
// never in the signal handler (dladdr is not async-signal-safe).
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
static uintptr_t samples[MAX_SAMPLES];
static unsigned count;
static uintptr_t base, lo, hi;  // executable load bias and mapped range

static void on_prof(int sig, siginfo_t* info, void* ctx) {
  (void)sig, (void)info;
  const mcontext_t* m = &((ucontext_t*)ctx)->uc_mcontext;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)m->gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)m->pc;
#else
#error "sigprof: add this architecture's PC register"
#endif
  const unsigned i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) samples[i] = pc;
}

static void arm(void) {
  const struct itimerval every = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every, NULL);
}

static void forked(void) {  // a child keeps none of the parent's samples
  count = 0;
  arm();  // and fork() does not inherit the timer
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  pthread_atfork(NULL, NULL, forked);
  arm();
}

static int find_exe(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size, (void)data;
  base = info->dlpi_addr;
  lo = UINTPTR_MAX;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* p = &info->dlpi_phdr[i];
    if (p->p_type != PT_LOAD) continue;
    if (base + p->p_vaddr < lo) lo = base + p->p_vaddr;
    if (base + p->p_vaddr + p->p_memsz > hi)
      hi = base + p->p_vaddr + p->p_memsz;
  }
  return 1;  // the first object listed is the executable
}

static int by_pc(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a, y = *(const uintptr_t*)b;
  return (x > y) - (x < y);
}

// The row of a PC outside the executable: its exported symbol when the PC
// lies inside one, else its object's file name.
static void print_shared(FILE* f, uintptr_t pc, unsigned times) {
  Dl_info info;
  const ElfW(Sym)* sym = NULL;
  char row[4096];
  if (dladdr1((void*)pc, &info, (void**)&sym, RTLD_DL_SYMENT) == 0 ||
      info.dli_fname == NULL) {
    snprintf(row, sizeof row, "[unknown]");
  } else {
    const char* slash = strrchr(info.dli_fname, '/');
    const char* lib = slash ? slash + 1 : info.dli_fname;
    const uintptr_t at = (uintptr_t)info.dli_saddr;
    if (info.dli_sname != NULL && sym != NULL && pc >= at &&
        pc < at + sym->st_size)
      snprintf(row, sizeof row, "@%s %s", info.dli_sname, lib);
    else
      snprintf(row, sizeof row, "[%s]", lib);
  }
  fprintf(f, "%u %s\n", times, row);
}

__attribute__((destructor)) static void stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* out = getenv("EXPLFRAME_PROFILE_OUT");
  char path[4096], exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (out == NULL || len <= 0) return;
  exe[len] = '\0';
  snprintf(path, sizeof path, "%s.%ld", out, (long)getpid());
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  dl_iterate_phdr(find_exe, NULL);
  fprintf(f, "%s\n", exe);
  const unsigned n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
  qsort(samples, n, sizeof samples[0], by_pc);  // runs of one PC
  for (unsigned i = 0, j; i < n; i = j) {
    j = i + 1;
    while (j < n && samples[j] == samples[i]) ++j;
    if (samples[i] >= lo && samples[i] < hi)
      fprintf(f, "%u %lu\n", j - i, (unsigned long)(samples[i] - base));
    else
      print_shared(f, samples[i], j - i);
  }
  fclose(f);
}
