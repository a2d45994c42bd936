package p;

import javax.annotation.concurrent.ThreadSafe;

@ThreadSafe
class ForeignClassLit {
  private int n;

  public void inc() {
    synchronized (q.ForeignClassLit.class) {
      n = n + 1;
    }
  }

  public int get() {
    synchronized (ForeignClassLit.class) {
      return n;
    }
  }
}
