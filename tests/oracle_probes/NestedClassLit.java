package p;

import javax.annotation.concurrent.ThreadSafe;

class NestedClassLit {
  @ThreadSafe
  static class Inner {
    private int n;

    public void inc() {
      synchronized (NestedClassLit.Inner.class) {
        n = n + 1;
      }
    }

    public void reset() {
      synchronized (p.NestedClassLit.Inner.class) {
        n = 0;
      }
    }

    public int get() {
      synchronized (Inner.class) {
        return n;
      }
    }
  }
}
